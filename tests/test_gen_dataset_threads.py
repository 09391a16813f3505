"""gen-dataset on several threads: the bytes, errors and clean-up of a serial run."""

import hashlib
import itertools
import sys
import threading

import pytest
from cli_harness import PARAMS_JSON, REFUSED_MIDWAY, status, tree, write_json

from rawnoise import cli, parallel, synthetic

MODES = {
    "train": ["--mode", "train", "--seed", 21, "--count", 7, "--height", 12, "--width", 10],
    "flat": ["--mode", "flat", "--seed", 22, "--count", 3, "--levels", "0,5,40",
             "--height", 6, "--width", 5, "--params", PARAMS_JSON],
    "dark": ["--mode", "dark", "--seed", 23, "--count", 5, "--height", 7, "--width", 9,
             "--params", PARAMS_JSON],
}
# Tree digests of MODES (train with the default bank as low/mid/high.json),
# pinned from a one-thread gen-dataset: any thread count must write these bytes.
PINNED = {
    "train": "87ed21492eaea17c72a60eb7566652cea597c35f8898e75eb09e380efb4421bb",
    "flat": "a86739567ee58ee4ed07c27ef39ced7f19400982925ebebdd36467c7128fef2c",
    "dark": "3310e056bb62ea8de0d5f5d40f0fe420a9c5b20918fe5d2b8e6f1a5ea2d79fe5",
}


def _tree_digest(root) -> str:
    """sha256 over every file's relative path and sha256, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _bank_flags(base) -> list:
    flags = []
    for name, model in zip(("low", "mid", "high"), synthetic.default_camera_bank()):
        flags += ["--camera", write_json(base / f"{name}.json", model.as_dict())]
    return flags


@pytest.mark.parametrize("mode", sorted(MODES))
def test_tree_bytes_do_not_depend_on_the_thread_count(tmp_path, cpus, mode):
    extra = _bank_flags(tmp_path) if mode == "train" else []
    for n in (1, 2, 4):
        cpus(n)
        out = tmp_path / f"{mode}_{n}"
        assert status("gen-dataset", "--out", out, *MODES[mode], *extra) == 0
        assert _tree_digest(out) == PINNED[mode], n


def test_one_cpu_starts_no_thread(tmp_path, cpus, no_thread):
    cpus(1)
    assert status("gen-dataset", "--out", tmp_path / "set", *MODES["dark"]) == 0
    assert _tree_digest(tmp_path / "set") == PINNED["dark"]


@pytest.mark.parametrize("n", [2, 4])
def test_units_run_on_n_threads_at_once(cpus, n):
    """Each unit waits until n units are in flight, which needs n threads."""
    cpus(n)
    barrier = threading.Barrier(n, timeout=30)
    idents = set()

    def unit(i):
        idents.add(threading.get_ident())
        barrier.wait()

    parallel.run_units(2 * n, unit)
    assert len(idents) == n


def test_stress_more_threads_than_cpus(tmp_path, cpus):
    """8 threads switching every microsecond: every unit runs exactly once (a
    lost claim breaks it), and the tree is the serial run's."""
    cpus(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ran = []
        parallel.run_units(3000, ran.append)
        assert sorted(ran) == list(range(3000))
        argv = ["gen-dataset", "--mode", "dark", "--seed", 23, "--count", 60,
                "--height", 4, "--width", 4, "--params", PARAMS_JSON]
        assert status(*argv, "--out", tmp_path / "threads") == 0
    finally:
        sys.setswitchinterval(interval)
    cpus(1)
    assert status(*argv, "--out", tmp_path / "serial") == 0
    assert _tree_digest(tmp_path / "threads") == _tree_digest(tmp_path / "serial")


def test_the_lowest_failing_index_is_raised_and_claims_stop(cpus):
    cpus(4)
    ran = set()
    lock = threading.Lock()

    def unit(i):
        with lock:
            ran.add(i)
        if i in (3, 5):
            raise ValueError(i)

    for _ in range(50):
        ran.clear()
        with pytest.raises(ValueError) as caught:
            parallel.run_units(1000, unit)
        assert caught.value.args == (3,)
        assert {0, 1, 2, 3} <= ran
        assert len(ran) < 20


def test_a_claimed_unit_runs_after_a_later_unit_failed(cpus, monkeypatch):
    """Index 1 is handed out only once unit 2 has failed; unit 1 still runs,
    so its error, not unit 2's, is raised."""
    cpus(2)
    unit_2_failed = threading.Event()
    count = itertools.count

    class SlowClaims:
        def __init__(self):
            self.claims = count()

        def __iter__(self):
            return self

        def __next__(self):
            i = next(self.claims)
            if i == 1:
                unit_2_failed.wait(timeout=30)
            return i

    def unit(i):
        if i in (1, 2):
            if i == 2:
                unit_2_failed.set()
            raise ValueError(i)

    monkeypatch.setattr(parallel.itertools, "count", SlowClaims)
    with pytest.raises(ValueError) as caught:
        parallel.run_units(6, unit)
    assert caught.value.args == (1,)


def test_existing_out_refused_untouched(tmp_path, cpus, capsys):
    """An --out that exists, empty or not, is refused before anything is written."""
    cpus(4)
    bank = _bank_flags(tmp_path)
    empty, full = tmp_path / "empty", tmp_path / "full"
    empty.mkdir()
    (full / "noisy").mkdir(parents=True)
    (full / "noisy" / "patch_00002.json").write_text("kept")
    for out in (empty, full):
        before = tree(out)
        assert status("gen-dataset", "--out", out, "--mode", "train", "--seed", 4, "--count", 12,
                      "--height", 16, "--width", 16, *bank) == 2
        assert capsys.readouterr().err == f"IO_ERROR: [Errno 17] File exists: '{out}'\n"
        assert tree(out) == before


def test_concurrent_runs_on_one_new_out(tmp_path, cpus, capsys):
    """Two runs racing for one new --out: one writes a lone run's tree, the other is refused."""
    cpus(2)
    for attempt in range(20):
        out = tmp_path / f"set_{attempt}"
        start = threading.Barrier(2, timeout=30)
        codes = []

        def call():
            start.wait()
            codes.append(status("gen-dataset", "--out", out, *MODES["dark"]))

        callers = [threading.Thread(target=call) for _ in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
        assert sorted(codes) == [0, 2]
        assert capsys.readouterr().err == f"IO_ERROR: [Errno 17] File exists: '{out}'\n"
        assert _tree_digest(out) == PINNED["dark"]


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("mode, flags", list(REFUSED_MIDWAY.values()), ids=list(REFUSED_MIDWAY))
def test_refused_run_removes_what_it_wrote(tmp_path, cpus, capsys, n, mode, flags):
    """The refused run removes --out and its missing parent, and nothing beside them."""
    cpus(n)
    out = tmp_path / "new" / "set"
    (tmp_path / "notes.txt").write_text("kept")
    assert status("gen-dataset", "--out", out, "--seed", 1, "--mode", mode, "--count", 6,
                  "--height", 8, "--width", 8, *flags) == 2
    assert capsys.readouterr().err.startswith("DOMAIN: ")
    assert not out.exists() and not out.parent.exists()
    assert (tmp_path / "notes.txt").read_text() == "kept"


def test_refused_run_keeps_a_run_beside_it_under_a_shared_parent(tmp_path, cpus, capsys,
                                                                  monkeypatch):
    """Two runs both find --out's parent missing; the refused one leaves the other's tree whole."""
    cpus(2)
    shared = tmp_path / "runs"
    run_units = cli.run_units

    def sibling_first(count, unit):
        # runs/b has claimed its --out; runs/a now writes its whole tree
        monkeypatch.setattr(cli, "run_units", run_units)
        assert status("gen-dataset", "--out", shared / "a", *MODES["dark"]) == 0
        run_units(count, unit)

    monkeypatch.setattr(cli, "run_units", sibling_first)
    mode, flags = REFUSED_MIDWAY["dark_float32_overflow"]
    assert status("gen-dataset", "--out", shared / "b", "--seed", 1, "--mode", mode,
                  "--count", 6, "--height", 8, "--width", 8, *flags) == 2
    assert capsys.readouterr().err.startswith("DOMAIN: ")
    assert not (shared / "b").exists()
    assert _tree_digest(shared / "a") == PINNED["dark"]
