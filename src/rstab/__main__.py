"""``python -m rstab``: the same command line as the ``rstab`` script."""

from .cli import main

if __name__ == "__main__":
    main()
