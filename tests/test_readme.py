import json
import pathlib
import re

from qemlab.experiments import check_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_json_block_parses():
    # every config block parses and passes its scenario's checks
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        check_config(json.loads(block))
