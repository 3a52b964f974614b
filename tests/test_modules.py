"""Source-size budget of the package modules."""

import tokenize
from pathlib import Path

import twobridge

# CPython's parser grows its token array by doubling; past 4,096 tokens a
# module compiles with about 230 KB more peak memory, and every process
# that imports the package from source pays it
TOKEN_BUDGET = 4096


def parser_tokens(path: Path) -> int:
    """Tokens the parser reads: ``tokenize`` less comments, non-logical
    newlines and the encoding marker."""
    with path.open("rb") as f:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL,
                                    tokenize.ENCODING)
                   for tok in tokenize.tokenize(f.readline))


def test_every_module_stays_under_the_parser_token_budget():
    counts = {path.name: parser_tokens(path)
              for path in Path(twobridge.__file__).parent.glob("*.py")}
    assert "orders.py" in counts and "certify.py" in counts
    over = {name: n for name, n in counts.items() if n >= TOKEN_BUDGET}
    assert not over, over
