"""Executable documentation: snippets, links, and schema sync.

Three families of checks keep the docs from rotting:

1. **Runnable snippets.**  Fenced code blocks whose info string is
   ``python runnable`` or ``bash runnable`` (in ``README.md`` and
   ``docs/*.md``) are extracted and executed — per document, in
   order, sharing one scratch directory, so a multi-step worked
   session (export a run, then inspect it) really runs end to end.
   Blocks without the ``runnable`` marker are illustrative only.
2. **Intra-repo links.**  Every relative markdown link must point at
   a file that exists; same-file ``#anchor`` links must match a real
   heading.
3. **Schema sync.**  docs/OBSERVABILITY.md documents every telemetry
   event kind as a ``#### `kind` `` section with a
   ``| `field` | required/optional |`` table; this suite asserts those
   sections agree exactly with :data:`repro.obs.schema.EVENT_FIELDS`
   in both directions.
4. **Repo paths.**  Every backticked path under ``src/repro/``,
   ``benchmarks/``, ``bench/``, ``examples/`` or ``tests/`` (and every
   bare ``bench_*.py``, which lives in ``benchmarks/``) in README.md,
   DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` must exist, so a
   deleted file cannot stay named in the docs.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS_DIR = REPO_ROOT / "docs"
SRC_DIR = REPO_ROOT / "src"

#: Documents whose runnable snippets and links are under test.
DOCUMENTS = sorted([REPO_ROOT / "README.md", *DOCS_DIR.glob("*.md")],
                   key=lambda path: path.name)

FENCE_RE = re.compile(
    r"^```(?P<info>[^\n`]*)\n(?P<body>.*?)^```\s*$",
    re.MULTILINE | re.DOTALL)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def runnable_snippets(path: Path):
    """``(language, code)`` pairs for every runnable fence, in order."""
    snippets = []
    for match in FENCE_RE.finditer(path.read_text(encoding="utf-8")):
        info = match.group("info").split()
        if len(info) >= 2 and info[1] == "runnable":
            assert info[0] in ("python", "bash"), \
                f"{path.name}: unsupported runnable language {info[0]!r}"
            snippets.append((info[0], match.group("body")))
    return snippets


def snippet_environment():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize(
    "document",
    [path for path in DOCUMENTS if runnable_snippets(path)],
    ids=lambda path: path.name)
def test_runnable_snippets_execute(document, tmp_path):
    shell = shutil.which("bash") or shutil.which("sh")
    env = snippet_environment()
    for number, (language, code) in enumerate(runnable_snippets(document),
                                              start=1):
        if language == "python":
            argv = [sys.executable, "-c", code]
        else:
            argv = [shell, "-e", "-c", code]
        proc = subprocess.run(argv, cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (
            f"{document.name} runnable snippet #{number} ({language}) "
            f"failed with exit {proc.returncode}\n"
            f"--- code ---\n{code}\n"
            f"--- stdout ---\n{proc.stdout}\n"
            f"--- stderr ---\n{proc.stderr}")


def test_there_are_runnable_snippets():
    assert any(runnable_snippets(path) for path in DOCUMENTS)


# -- links --------------------------------------------------------------------


def github_slug(heading: str) -> str:
    heading = re.sub(r"`", "", heading).strip().lower()
    heading = re.sub(r"[^\w\s-]", "", heading, flags=re.UNICODE)
    return re.sub(r"\s+", "-", heading)


def strip_fences(text: str) -> str:
    return FENCE_RE.sub("", text)


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda path: path.name)
def test_intra_repo_links_resolve(document):
    text = strip_fences(document.read_text(encoding="utf-8"))
    slugs = {github_slug(h) for h in HEADING_RE.findall(
        document.read_text(encoding="utf-8"))}
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        if not path_part:
            assert fragment in slugs, (
                f"{document.name}: anchor #{fragment} matches no heading")
            continue
        resolved = (document.parent / path_part).resolve()
        assert resolved.exists(), (
            f"{document.name}: link target {target!r} does not exist")


# -- repo paths ---------------------------------------------------------------

PATH_DOCUMENTS = sorted([REPO_ROOT / "DESIGN.md", REPO_ROOT / "EXPERIMENTS.md",
                         *DOCUMENTS], key=lambda path: path.name)
SPAN_RE = re.compile(r"`([^`\n]+)`")
#: A covered path names a file by its suffix or a directory by its slash
#: (``benchmarks/support.Row`` is a symbol, not a path).
REPO_PATH_RE = re.compile(
    r"(?:src/repro|benchmarks|bench|examples|tests)/"
    r"(?:[\w/.-]*(?:\.(?:py|md|json|jsonl|yml|yaml|txt|toml)|/))?")
BARE_BENCH_RE = re.compile(r"bench_\w+\.py")


def named_repo_paths(document: Path) -> list:
    """Repo-relative paths the document names in backticks; a
    ``::symbol`` suffix and any command-line arguments are dropped."""
    paths = []
    for span in SPAN_RE.findall(strip_fences(
            document.read_text(encoding="utf-8"))):
        token = span.split()[0].split("::")[0] if span.strip() else ""
        if BARE_BENCH_RE.fullmatch(token):
            paths.append(f"benchmarks/{token}")
        elif REPO_PATH_RE.fullmatch(token):
            paths.append(token)
    return paths


@pytest.mark.parametrize("document", PATH_DOCUMENTS,
                         ids=lambda path: path.name)
def test_named_repo_paths_exist(document):
    missing = [path for path in named_repo_paths(document)
               if not (REPO_ROOT / path).exists()]
    assert not missing, f"{document.name} names missing paths: {missing}"


def test_named_repo_paths_are_found():
    named = {path for document in PATH_DOCUMENTS
             for path in named_repo_paths(document)}
    assert "src/repro/experiments/claims.py" in named
    assert "benchmarks/bench_service.py" in named


# -- schema sync --------------------------------------------------------------

KIND_HEADING_RE = re.compile(r"^#### `(\w+)`$", re.MULTILINE)
FIELD_ROW_RE = re.compile(r"^\|\s*`(\w+)`\s*\|\s*(required|optional)\s*\|",
                          re.MULTILINE)


def documented_events():
    """kind -> (required fields, optional fields) as the docs declare."""
    text = (DOCS_DIR / "OBSERVABILITY.md").read_text(encoding="utf-8")
    matches = list(KIND_HEADING_RE.finditer(text))
    documented = {}
    for index, match in enumerate(matches):
        end = (matches[index + 1].start() if index + 1 < len(matches)
               else len(text))
        section = text[match.start():end]
        required, optional = [], []
        for field, presence in FIELD_ROW_RE.findall(section):
            (required if presence == "required" else optional).append(field)
        documented[match.group(1)] = (tuple(required), tuple(optional))
    return documented


def test_every_schema_kind_is_documented():
    from repro.obs.schema import EVENT_FIELDS
    documented = documented_events()
    assert set(documented) == set(EVENT_FIELDS), (
        f"undocumented kinds: {sorted(set(EVENT_FIELDS) - set(documented))}; "
        f"stale doc sections: {sorted(set(documented) - set(EVENT_FIELDS))}")


def test_documented_fields_match_schema_exactly():
    from repro.obs.schema import EVENT_FIELDS
    for kind, (doc_required, doc_optional) in documented_events().items():
        required, optional = EVENT_FIELDS[kind]
        assert set(doc_required) == set(required), (
            f"{kind}: docs say required={sorted(doc_required)}, "
            f"schema says {sorted(required)}")
        assert set(doc_optional) == set(optional), (
            f"{kind}: docs say optional={sorted(doc_optional)}, "
            f"schema says {sorted(optional)}")
