"""The traffic audit's own logic (tests/traffic.py), on a small module it traces."""

import importlib.util
import os

import pytest

import traffic

SOURCE = '''"""A module docstring."""
COUNT = 0


def outer(x):
    """A function docstring."""
    global COUNT
    COUNT += 1

    def inner(y):
        if y:
            return y
        return 0

    if x < 0:
        raise ValueError("negative")
    return inner(x)
'''


def audit(root, source):
    """Import ``source`` as ``pkg.mod`` under ``root``, call ``outer(1)`` under the
    tracer, and return (every statement, the unreached keys)."""
    package = root / "pkg"
    package.mkdir(parents=True)
    path = package / "mod.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("pkg.mod", path)
    module = importlib.util.module_from_spec(spec)
    with traffic.LineTrace(package) as trace:
        spec.loader.exec_module(module)
        module.outer(1)
    found = traffic.package_statements(package)
    return found, traffic.unreached(found, trace.lines)


RAISE = ("pkg.mod", "outer", 1, "raise ValueError('negative')")
INNER_RETURN = ("pkg.mod", "outer.<locals>.inner", 1, "return 0")
IF_X = ("pkg.mod", "outer", 1, "if x < 0:")


def test_unreached_statements_are_keyed_by_function_and_text(tmp_path):
    found, missed = audit(tmp_path, SOURCE)
    # a nested function's statement belongs to that function
    assert missed == {RAISE, INNER_RETURN}
    assert IF_X in found


def test_keys_do_not_move_with_blank_lines(tmp_path):
    found, missed = audit(tmp_path / "a", SOURCE)
    padded = SOURCE.replace("    if x < 0:", "\n\n\n    if x < 0:")
    found_padded, missed_padded = audit(tmp_path / "b", padded)
    assert found_padded.keys() == found.keys() and missed_padded == missed
    assert found_padded[RAISE][1].start == found[RAISE][1].start + 3


def test_docstrings_and_global_are_never_listed(tmp_path):
    found, _ = audit(tmp_path, SOURCE)
    texts = {text for _, _, _, text in found}
    assert not {"'A module docstring.'", "'A function docstring.'", "global COUNT"} & texts
    assert "COUNT += 1" in texts


def test_each_mismatch_kind_is_reported(tmp_path):
    found, missed = audit(tmp_path, SOURCE)
    gone = ("pkg.mod", "outer", 1, "return -1")
    listed = {INNER_RETURN: "guard", IF_X: "input", gone: "cli"}
    report = traffic.compare(found, missed, listed)
    assert report[1::2] == [traffic.entry(RAISE, "?"), traffic.entry(IF_X, "input"),
                            traffic.entry(gone, "cli")]
    mod = os.path.relpath(tmp_path / "pkg" / "mod.py")
    assert report[::2] == [f"# reached by no traffic, and not listed {mod}:16",
                           f"# listed, and now reached {mod}:15",
                           "# listed, and no longer in the source"]
    assert traffic.compare(found, missed, {RAISE: "input", INNER_RETURN: "guard"}) == []


@pytest.mark.parametrize("line", [
    "\tpkg.mod\touter\t1\treturn 0",
    "?\tpkg.mod\touter\t1\treturn 0",
    "guard,input\tpkg.mod\touter\t1\treturn 0",
    "pkg.mod\touter\t1\treturn 0",
    "guard\tpkg.mod\touter\t0\treturn 0",
], ids=["empty", "unknown", "two", "missing", "occurrence-0"])
def test_an_entry_without_one_known_reason_is_rejected(line):
    with pytest.raises(traffic.ListError, match="^line 2: "):
        traffic.read_list("# a comment\n" + line)


def test_the_list_reads_back_what_entry_writes():
    text = "\n".join(traffic.entry(key, reason)
                     for key, reason in ((RAISE, "input"), (INNER_RETURN, "guard")))
    assert traffic.read_list(text) == {RAISE: "input", INNER_RETURN: "guard"}
    with pytest.raises(traffic.ListError, match="^line 3: listed twice$"):
        traffic.read_list(text + "\n" + traffic.entry(INNER_RETURN, "cli"))
