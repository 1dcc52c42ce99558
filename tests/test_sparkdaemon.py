"""Spark's Python workers start through ``repro.sparkdaemon``: they import the
driver's pyspark, and hold no importer on SPARK_HOME's archives that
pyspark's per-task ``importlib.invalidate_caches()`` would re-read."""
import zipfile
from pathlib import Path

import pyspark

from repro.sparkdaemon import _bundled_version, _installed_version, worker_path


def test_workers_import_the_drivers_pyspark(spark):
    def probe(_):
        import os
        import sys
        import zipimport

        import pyspark

        home = os.path.join(os.path.realpath(os.environ["SPARK_HOME"]), "")
        held = {
            imp.archive
            for imp in sys.path_importer_cache.values()
            if isinstance(imp, zipimport.zipimporter)
            and os.path.realpath(imp.archive).startswith(home)
        }
        yield pyspark.__file__, pyspark.__version__, sorted(held)

    [(file, version, held)] = spark.sparkContext.parallelize([0], 1).mapPartitions(probe).collect()
    assert version == spark.version
    assert file == pyspark.__file__
    assert held == []


PATH = [
    "/repo",
    "/spark/python/lib/pyspark.zip",
    "/spark/python/lib/py4j-0.10.9.9-src.zip",
    "/spark/jars/spark-core_2.13-4.1.2.jar",
    "src",
    "/elsewhere/lib.zip",
    "/sparkle/lib.zip",
    "/spark/python",
    "/site-packages",
]


def test_worker_path_drops_only_spark_home_archives():
    assert worker_path(PATH, "/spark", "4.1.2", "4.1.2") == [
        "/repo",
        "src",
        "/elsewhere/lib.zip",
        "/sparkle/lib.zip",
        "/spark/python",
        "/site-packages",
    ]


def test_worker_path_resolves_a_symlinked_spark_home(tmp_path):
    """Spark names its jar by real path while SPARK_HOME may be a link."""
    real = tmp_path / "spark-4.1.2-bin"
    (real / "jars").mkdir(parents=True)
    (tmp_path / "spark").symlink_to(real)
    jar = str(real / "jars" / "spark-core_2.13-4.1.2.jar")
    linked_zip = str(tmp_path / "spark" / "python" / "lib" / "pyspark.zip")
    path = [linked_zip, jar, "src"]
    assert worker_path(path, str(tmp_path / "spark"), "4.1.2", "4.1.2") == ["src"]
    assert worker_path(path, str(real), "4.1.2", "4.1.2") == ["src"]


def test_worker_path_keeps_everything_on_a_version_mismatch():
    assert worker_path(PATH, "/spark", "4.0.0", "4.1.2") == PATH
    assert worker_path(PATH, "/spark", None, "4.1.2") == PATH
    assert worker_path(PATH, "/spark", None, None) == PATH


def test_versions_are_read_from_the_zip_and_the_installed_package(tmp_path):
    archive = tmp_path / "spark" / "pyspark.zip"
    archive.parent.mkdir()
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("pyspark/version.py", "__version__: str = '9.8.7'\n")
    assert _bundled_version([str(tmp_path / "other.zip"), str(archive)]) == "9.8.7"
    assert _bundled_version([str(tmp_path / "other.zip")]) is None
    assert _installed_version([str(Path(pyspark.__file__).parents[1])]) == pyspark.__version__
