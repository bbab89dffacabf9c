"""``python -m gtoric``: the same command line as the ``gtoric`` script."""

from .cli import main

if __name__ == "__main__":
    main()
