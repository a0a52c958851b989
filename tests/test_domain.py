"""One pinned map of the accepted domain: corners of the box the command
line accepts, each run through cli.main with one config-file key, and the
exit code each gives.  A corner that mends flips its entry here and in
README's "Known limits" table; one that leaves exit 0 is a regression."""

import re
from pathlib import Path

import pytest

from quantracer.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

FREE, LOSSY = "free --preset fig1", "dissipative --preset fig1"
TUNNEL, DELTA_P, VERIFY = "tunnel --preset fig2", "delta-p --preset fig2", "verify --quick"

# (command, config line or "", exit code, ROADMAP item owning a non-zero code)
CORNERS = [
    *((FREE, f"sigma_x0 = {s}", code, 11) for s, code in
      (("1e-2", 1), ("0.1", 1), ("0.3", 0), ("2.5", 0), ("100", 0), ("1e3", 0), ("1e6", 0))),
    *((LOSSY, f"sigma_x0 = {s}", code, 2) for s, code in
      (("1e-2", 1), ("0.1", 1), ("0.3", 1), ("2.5", 0), ("100", 1), ("1e3", 1), ("1e6", 1))),
    (LOSSY + " --p-list 0.67", "", 1, 2),
    *((TUNNEL, f"sigma_x0 = {s}", code, 10) for s, code in
      (("1e3", 0), ("3e3", 3), ("1e4", 3), ("1e6", 3))),
    *((command, f"v_bar = {v}", 2, 17) for command in (TUNNEL, DELTA_P, VERIFY)
      for v in ("0.5", "0.8", "1.2")),
    (TUNNEL, "v_bar = 1.5", 0, 17),
    (DELTA_P, "v_bar = 1.5", 0, 17),
    (VERIFY, "v_bar = 1.5", 1, 4),
]


@pytest.mark.parametrize("command, config, code, item", CORNERS,
                         ids=[f"{c.split()[0]}-{k or 'p0.67'}".replace(" ", "")
                              for c, k, _, _ in CORNERS])
def test_each_corner_exits_as_pinned(tmp_path, capsys, command, config, code, item):
    conf = tmp_path / "corner.conf"
    conf.write_text(config + "\n", encoding="utf-8")
    got = main([*command.split(), "--config", str(conf), "--out", str(tmp_path / "out.csv")])
    out, err = capsys.readouterr()
    assert got == code, (command, config, out[-300:], err)
    assert err.count("\n") == (1 if code in (2, 3) else 0)


def test_readme_known_limits_match_the_table():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Known limits", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (?:`([^`]+)`|none) \| (\d) \| ROADMAP item (\d+) \|$",
                      section, re.M)
    assert sorted((c, k, int(e), int(i)) for c, k, e, i in rows) == sorted(
        corner for corner in CORNERS if corner[2] != 0)
