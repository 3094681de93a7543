"""`python -m povmcert`: the same command line as the `povmcert` script."""
from .cli import entry

if __name__ == "__main__":
    entry()
