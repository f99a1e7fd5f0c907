"""``python -m patex``: the same command line as the ``patex`` script."""

from .cli import main

if __name__ == "__main__":
    main()
