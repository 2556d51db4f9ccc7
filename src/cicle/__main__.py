"""``python -m cicle``: the same command line as the ``cicle`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
