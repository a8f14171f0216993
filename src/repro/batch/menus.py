from repro.media.menus import MenuBlockSource  # noqa: F401  (perf/seams.py imports it from here)
