"""``python -m latmech``: the command-line interface of :mod:`latmech.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
