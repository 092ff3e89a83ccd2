"""``python -m rcfold``: the command-line driver of ``rcfold.cli``."""
from .cli import main

raise SystemExit(main())
