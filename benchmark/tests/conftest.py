import sys
from pathlib import Path

# the benchmark's modules sit one directory up and are imported by plain name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
