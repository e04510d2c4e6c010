"""``python -m sethopf``: the same command line as the ``sethopf`` script."""

from .cli import main

main()
