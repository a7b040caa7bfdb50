import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_points_import():
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert "moment" in namespace and "PolyGaussianKernel" in namespace


def test_star_import_resolves_every_export():
    import polygauss

    namespace: dict = {}
    exec("from polygauss import *", namespace)
    assert set(polygauss.__all__) <= set(namespace)
