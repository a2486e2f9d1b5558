"""``python -m hypcert``: the same command line as the ``hypcert`` script."""

from .cli import main

if __name__ == "__main__":
    main()
