import json
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_json_block_parses():
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        json.loads(block)
