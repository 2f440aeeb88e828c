"""`python -m wreathsph ...` runs the command line, like `wreathsph ...`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
