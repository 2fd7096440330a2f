"""Run the command-line interface: ``python -m ccsp <command> ...``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
