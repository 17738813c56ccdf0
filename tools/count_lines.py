"""Count the source lines of each module of src/intpow, leaving out
docstrings, comments and blank lines.

A line counts when a token other than a comment, a line break or an
indentation change starts on it.  A string that stands alone as a
statement (a docstring) counts nothing.  Standard library only:

    python tools/count_lines.py [PACKAGE_DIR]

It prints one "module count" line per module, then "total count".
"""

import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
# A statement starts after these, so a lone string there is a docstring.
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def count_lines(path):
    """The number of lines of one file that hold code."""
    with open(path, "rb") as source:
        tokens = [token for token in tokenize.tokenize(source.readline)
                  if token.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, token, after in zip(tokens, tokens[1:], tokens[2:]):
        docstring = (token.type == tokenize.STRING and before.type in STATEMENT_START
                     and after.type == tokenize.NEWLINE)
        if token.type not in LAYOUT and not docstring:
            lines.add(token.start[0])
    return len(lines)


def main(argv):
    default = Path(__file__).resolve().parent.parent / "src" / "intpow"
    package = Path(argv[1]) if len(argv) > 1 else default
    total = 0
    for path in sorted(package.glob("*.py")):
        count = count_lines(path)
        total += count
        print(path.stem, count)
    print("total", total)


if __name__ == "__main__":
    main(sys.argv)
