"""``python -m varbound``: the ``varbound`` command line."""

from .cli import main

raise SystemExit(main())
