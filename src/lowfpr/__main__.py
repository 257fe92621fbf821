"""Process entry of `python -m lowfpr` and of the `lowfpr` script (pyproject.toml)."""

import gc
import os

# Before numpy loads: lowfpr calls no BLAS routine, and OpenBLAS's worker pool would only spin beside the main thread.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import cli  # noqa: E402


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
