"""The repository's benchmark: see run.py for how to run it, NOTES.md for what it measures."""
