"""``python -m topogroups``: the topogroups command line."""

from .cli import main

if __name__ == "__main__":
    main()
