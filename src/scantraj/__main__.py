"""``python -m scantraj``: the command-line interface (``scantraj.cli``)."""

from .cli import main

if __name__ == "__main__":
    main()
