"""Spark's Python worker daemon, run on the installed pyspark.

Spark starts its Python workers with ``$SPARK_HOME/python/lib/pyspark.zip``,
the py4j zip and the spark-core jar at the head of ``PYTHONPATH``. Before
every task pyspark calls ``importlib.invalidate_caches()``, and on Python
3.11 each ``zipimporter`` cached for those archives then re-reads the whole
archive directory: 0.15–0.22 s per task on a 4-core Xeon. When the
installed pyspark has the archive's version, this module takes the archives
off ``sys.path`` and their importers out of ``sys.path_importer_cache``
before it starts ``pyspark.daemon``, so the workers import the driver's
pyspark and py4j, and the reset costs about 0.05 ms.

``jobs._common.get_spark`` names it as ``spark.python.daemon.module``, so
the workers need ``src`` (or an installed ``repro``) on their path.
"""
from __future__ import annotations

import os
import re
import sys
import zipfile
from importlib.machinery import PathFinder
from pathlib import Path

_VERSION = re.compile(r"""^__version__\b[^=]*=\s*["']([^"']+)["']""", re.M)


def is_spark_archive(entry: str, spark_home: str) -> bool:
    """Whether a ``sys.path`` entry is a zip or jar file under ``spark_home``,
    after symbolic links are resolved (Spark names its jar by real path)."""
    home = os.path.join(os.path.realpath(spark_home), "")
    return entry.endswith((".zip", ".jar")) and os.path.realpath(entry).startswith(home)


def worker_path(
    path: list[str], spark_home: str, installed: str | None, bundled: str | None
) -> list[str]:
    """``path`` without ``spark_home``'s archives if the installed pyspark
    version equals the bundled one, else ``path`` unchanged."""
    if installed is None or installed != bundled:
        return list(path)
    return [p for p in path if not is_spark_archive(p, spark_home)]


def _version(source: str) -> str | None:
    m = _VERSION.search(source)
    return m.group(1) if m else None


def _bundled_version(archives: list[str]) -> str | None:
    """``__version__`` of ``pyspark/version.py`` in the pyspark.zip among ``archives``."""
    for a in archives:
        if os.path.basename(a) == "pyspark.zip":
            try:
                with zipfile.ZipFile(a) as z:
                    return _version(z.read("pyspark/version.py").decode())
            except (OSError, KeyError, zipfile.BadZipFile):
                return None
    return None


def _installed_version(path: list[str]) -> str | None:
    """``__version__`` of the pyspark that ``path`` imports."""
    spec = PathFinder.find_spec("pyspark", path)
    if spec is None or not spec.submodule_search_locations:
        return None
    try:
        return _version(Path(spec.submodule_search_locations[0], "version.py").read_text())
    except OSError:
        return None


def main() -> None:
    home = os.environ.get("SPARK_HOME")
    if home:
        archives = [p for p in sys.path if is_spark_archive(p, home)]
        rest = [p for p in sys.path if p not in archives]
        kept = worker_path(sys.path, home, _installed_version(rest), _bundled_version(archives))
        for p in set(sys.path) - set(kept):
            sys.path_importer_cache.pop(p, None)
        sys.path[:] = kept
    from pyspark.daemon import manager

    manager()


if __name__ == "__main__":
    main()
