"""Process entry of `python -m lowfpr` and of the `lowfpr` script (pyproject.toml)."""

import gc

from . import cli


def main(argv: list[str] | None = None) -> int:
    """Run one command as the whole process, after freezing the import-time heap.

    gc.freeze() keeps the numpy, argparse and lowfpr module objects out of every
    collection, the final one at exit included. Only a process entry may do
    this: ``cli.main`` also runs many times in one process, where freezing
    would pin its uncollected garbage for good.
    """
    gc.freeze()
    return cli.main(argv)


if __name__ == "__main__":
    main()
