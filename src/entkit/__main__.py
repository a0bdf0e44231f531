"""`python -m entkit`: the `entkit` command line."""

from .cli import main

if __name__ == "__main__":
    main()
