"""Byte-level guard on every file the CLI writes and every line it prints.

One small seeded run goes synth (CSV and JSON Lines) -> validate (both) ->
fit (all four variants at 1e-2) -> eval -> all five studies, in process. Each
output file's sha256 must equal the digest below, and the commands' stdout and
stderr, with the work directory shown as ``<work>``, must equal the transcript
below. A change that alters any output byte fails here; if the change is meant
to alter outputs, record the new digests or text and say why in CHANGES.md.
The digests and the transcript's floats were recorded with Python 3.11 and
numpy 2.4 on x86-64; another numpy build may round a float's last bit apart.
"""

import hashlib
import json
from dataclasses import replace

from lowfpr.cli import main
from lowfpr.synth import novelty_scenario

VARIANTS = ("g", "g+l", "g+lv2", "g+lv3")
STUDIES = (
    ("protocol",),
    ("subsample", "--fractions", "1,0.5", "--study-seeds", "2", "--threads", "2"),
    ("table1",),
    ("errors",),
    ("novelty",),
)

EXPECTED = {
    "data.csv": "35f562295db0a5aa2a5dcb36ed620727094c5b42e4d10bf023afa32bf126bf8c",
    "data.jsonl": "08a84044d6faf6bf0a398455860a74b2302d21a1838ceb72baae3dd1ed2ea01b",
    "eval_g/evaluation.csv": "3130915b996353cca9a29694c6917d8c343c6055c31c2ff3eeba065425717a9a",
    "eval_g+l/evaluation.csv": "4d0032c0bd467e8404e2d0987bf8e8bc77b37e016eee5047af37622d7ff8e120",
    "eval_g+lv2/evaluation.csv": "c0ad0b33bd5b052e845b638533acae5c2c3360346fa78f2b18d3f4139562f594",
    "eval_g+lv3/evaluation.csv": "ee0513994a6f7142d18ed08e6586692d048473c2f30e75fa201625300c8535fd",
    "fit/calibration_g+l_0.01.json": "2c541b9b15f225b0f735cfb6a759f9e580936b752fd22801e47059871834dc10",
    "fit/calibration_g+lv2_0.01.json": "76fd67b1716d10925851b5df496126d4e4432a2283e824131c5b78d3290f07d5",
    "fit/calibration_g+lv3_0.01.json": "e31a92421d4d86ba6d15394748ea46c86e2daf42e75593035ab88cf47cd749df",
    "fit/calibration_g_0.01.json": "9f8043d12a06d9e6246acae35a6a15a95535878b13d63862162b361120525f9b",
    "study/errors.csv": "6078ccf3a32a398642f7240027ca8ba0db3a82faf460018fa91165e6cfc5010a",
    "study/novelty.csv": "94da650d43213c22d392da4ea916f8044c824410ef3982c3f2931ec70342bc0f",
    "study/protocol.csv": "745213d4a7954eebe40a2c6dea174780a474f319ad0239266b4587af57340556",
    "study/subsample.csv": "4a3a678275b22a1abfad83aaf8ab5b156713187982d7e9bc901647e8d52fdee9",
    "study/table1.csv": "6d116fba9f750909ed7d7af8e08c749190f3a3a9f5f6e777c5c2344cf0ae8920",
}

TRANSCRIPT = """\
$ synth --config <work>/config.json --output <work>/data.csv
wrote <work>/data.csv: 2000 records, 5 members
  train: 680 records (286 malicious, 394 benign, 0 novel-family)
  validation: 515 records (204 malicious, 311 benign, 0 novel-family)
  test: 805 records (510 malicious, 295 benign, 300 novel-family)
$ synth --config <work>/config.json --output <work>/data.jsonl --format jsonl
wrote <work>/data.jsonl: 2000 records, 5 members
  train: 680 records (286 malicious, 394 benign, 0 novel-family)
  validation: 515 records (204 malicious, 311 benign, 0 novel-family)
  test: 805 records (510 malicious, 295 benign, 300 novel-family)
$ validate --input <work>/data.csv
ok: 2000 records, 5 members
  train: 680 records (286 malicious, 394 benign)
  validation: 515 records (204 malicious, 311 benign)
  test: 805 records (510 malicious, 295 benign)
$ validate --input <work>/data.jsonl --format jsonl
ok: 2000 records, 5 members
  train: 680 records (286 malicious, 394 benign)
  validation: 515 records (204 malicious, 311 benign)
  test: 805 records (510 malicious, 295 benign)
$ fit --input <work>/data.csv --output-dir <work>/fit --variant g --target-fpr 0.01 --seed 3
fitted g @ target_fpr=0.01: threshold=0.5395162338355641 tpr=1.0 fpr=0.006430868167202572
wrote <work>/fit/calibration_g_0.01.json
$ eval --input <work>/data.csv --output-dir <work>/eval_g --calibration <work>/fit/calibration_g_0.01.json
tpr=0.7490196078431373 actualized_fpr=0.020338983050847456 combined=-0.2848786972416084
wrote <work>/eval_g/evaluation.csv
$ fit --input <work>/data.csv --output-dir <work>/fit --variant g+l --target-fpr 0.01 --seed 3
fitted g+l @ target_fpr=0.01: threshold=0.2892405346069244 tpr=1.0 fpr=0.006430868167202572
wrote <work>/fit/calibration_g+l_0.01.json
$ eval --input <work>/data.csv --output-dir <work>/eval_g+l --calibration <work>/fit/calibration_g+l_0.01.json
tpr=0.9568627450980393 actualized_fpr=0.020338983050847456 combined=-0.07703555998670641
wrote <work>/eval_g+l/evaluation.csv
$ fit --input <work>/data.csv --output-dir <work>/fit --variant g+lv2 --target-fpr 0.01 --seed 3
fitted g+lv2 @ target_fpr=0.01: threshold=20.515075377493865 tpr=1.0 fpr=0.006430868167202572
wrote <work>/fit/calibration_g+lv2_0.01.json
$ eval --input <work>/data.csv --output-dir <work>/eval_g+lv2 --calibration <work>/fit/calibration_g+lv2_0.01.json
tpr=0.9549019607843138 actualized_fpr=0.020338983050847456 combined=-0.0789963443004319
wrote <work>/eval_g+lv2/evaluation.csv
$ fit --input <work>/data.csv --output-dir <work>/fit --variant g+lv3 --target-fpr 0.01 --seed 3
fitted g+lv3 @ target_fpr=0.01: threshold=1.0283390555838545 tpr=1.0 fpr=0.006430868167202572
wrote <work>/fit/calibration_g+lv3_0.01.json
$ eval --input <work>/data.csv --output-dir <work>/eval_g+lv3 --calibration <work>/fit/calibration_g+lv3_0.01.json
tpr=0.8274509803921568 actualized_fpr=0.020338983050847456 combined=-0.20644732469258886
wrote <work>/eval_g+lv3/evaluation.csv
$ study --input <work>/data.csv --output-dir <work>/study --study protocol
wrote <work>/study/protocol.csv
stderr: warning: target FPR 0.001 is below 1/311, one false positive among the 311 validation negatives; no nonzero FPR on this split fits the budget
stderr: warning: target FPR 0.0001 is below 1/311, one false positive among the 311 validation negatives; no nonzero FPR on this split fits the budget
stderr: warning: target FPR 1e-05 is below 1/311, one false positive among the 311 validation negatives; no nonzero FPR on this split fits the budget
$ study --input <work>/data.csv --output-dir <work>/study --study subsample --fractions 1,0.5 --study-seeds 2 --threads 2
wrote <work>/study/subsample.csv
$ study --input <work>/data.csv --output-dir <work>/study --study table1
wrote <work>/study/table1.csv
$ study --input <work>/data.csv --output-dir <work>/study --study errors
wrote <work>/study/errors.csv
$ study --input <work>/data.csv --output-dir <work>/study --study novelty
wrote <work>/study/novelty.csv
"""


def run_pipeline(work, capsys) -> tuple[dict[str, str], str]:
    """Run the command chain in ``work``.

    Returns the sha256 of every written file by relative path, and a
    transcript: each command after ``$ ``, then its stdout, then its stderr
    with each line marked ``stderr: ``.
    """
    config = replace(novelty_scenario(seed=21), n_benign=1000, n_malicious=1000)
    (work / "config.json").write_text(json.dumps(config.to_dict()))
    data = str(work / "data.csv")
    commands = [
        ["synth", "--config", str(work / "config.json"), "--output", data],
        ["synth", "--config", str(work / "config.json"), "--output", str(work / "data.jsonl"), "--format", "jsonl"],
        ["validate", "--input", data],
        ["validate", "--input", str(work / "data.jsonl"), "--format", "jsonl"],
    ]
    for v in VARIANTS:
        commands.append(["fit", "--input", data, "--output-dir", str(work / "fit"), "--variant", v,
                         "--target-fpr", "0.01", "--seed", "3"])
        commands.append(["eval", "--input", data, "--output-dir", str(work / f"eval_{v}"),
                         "--calibration", str(work / "fit" / f"calibration_{v}_0.01.json")])
    for name, *options in STUDIES:
        commands.append(["study", "--input", data, "--output-dir", str(work / "study"), "--study", name, *options])
    transcript = []
    capsys.readouterr()
    for args in commands:
        assert main(args) == 0, args
        out, err = capsys.readouterr()
        stderr = "".join(f"stderr: {line}" for line in err.splitlines(keepends=True))
        transcript.append(f"$ {' '.join(args)}\n{out}{stderr}")
    written = sorted(p for p in work.rglob("*") if p.is_file() and p.name != "config.json")
    digests = {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    return digests, "".join(transcript).replace(str(work), "<work>")


def test_outputs_match_recorded_digests(tmp_path, capsys):
    digests, transcript = run_pipeline(tmp_path, capsys)
    assert digests == EXPECTED
    assert transcript == TRANSCRIPT
