"""Minimal C++ lexer for the nbcheck token backend.

Produces a flat token stream with line numbers, with comments,
string/char literals (including raw strings), and `#include`
directives stripped out of the code stream. Include directives are
reported separately so the include-graph pass shares one scan, and
so are the rule names of `// NOLINT(<rule>, ...)` comments, keyed by
line, for the lint rules that honour that escape.

This is deliberately not a preprocessor: macro bodies and both arms
of `#if`/`#else` regions are tokenized, which is what a checker
wants — a forbidden call is forbidden on every configuration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Punctuation, longest-first so compound operators win.
_PUNCT = (
    "<<=", ">>=", "...", "->*", "::", "->", "<<", ">>", "<=", ">=",
    "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "++", "--", "##",
    "{", "}", "(", ")", "[", "]", "<", ">", ";", ":", ",", ".", "+",
    "-", "*", "/", "%", "&", "|", "^", "!", "~", "=", "?", "#",
)

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"(?:0[xXbB])?[0-9][0-9a-fA-F'.eEpPxXuUlLfF+-]*")
_INCLUDE_RE = re.compile(
    r'^\s*#\s*include\s+(?:"([^"]+)"|<([^>]+)>)')
_NOLINT_RE = re.compile(r"//\s*NOLINT\(([a-z\-, ]+)\)")


@dataclass
class Token:
    """One lexical token: kind is 'id', 'num', 'punct', 'str' or
    'char'; value is the exact spelling (literals collapse to a
    placeholder so their contents can never trip a rule)."""
    kind: str
    value: str
    line: int


@dataclass
class Include:
    """One #include directive."""
    target: str
    line: int
    system: bool


def lex(text):
    """Tokenize C++ source. Returns (tokens, includes, nolint), where
    nolint maps a line number to the rule names its `//` comment
    exempts."""
    tokens = []
    includes = []
    nolint = {}
    i = 0
    n = len(text)
    line = 1
    line_start = True  # only preprocessor directives care

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "\\" and i + 1 < n and text[i + 1] == "\n":
            line += 1
            i += 2
            continue
        # Comments.
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                end = text.find("\n", i)
                end = n if end < 0 else end
                m = _NOLINT_RE.search(text, i, end)
                if m:
                    nolint.setdefault(line, set()).update(
                        r.strip() for r in m.group(1).split(","))
                i = end
                continue
            if text[i + 1] == "*":
                end = text.find("*/", i + 2)
                if end < 0:
                    break
                line += text.count("\n", i, end + 2)
                i = end + 2
                continue
        # Preprocessor directives: #include goes to the include
        # list; other directives stay in the token stream (macro
        # bodies are real code).
        if c == "#" and line_start:
            eol = text.find("\n", i)
            eol = n if eol < 0 else eol
            # Honour continuation lines for directive extent.
            while eol < n and text[eol - 1] == "\\":
                nxt = text.find("\n", eol + 1)
                eol = n if nxt < 0 else nxt
            directive = text[i:eol]
            m = _INCLUDE_RE.match(directive)
            if m:
                quoted, angled = m.group(1), m.group(2)
                includes.append(Include(quoted or angled, line,
                                        angled is not None))
                line += directive.count("\n")
                i = eol
                line_start = False
                continue
            # Fall through: tokenize the directive like code (the
            # leading '#' and name become tokens; harmless).
        line_start = False
        # Raw strings.
        if c == "R" and text.startswith('R"', i):
            m = re.compile(r'R"([^\s()\\]{0,16})\(').match(text, i)
            if m:
                delim = ")" + m.group(1) + '"'
                end = text.find(delim, m.end())
                if end < 0:
                    break
                line += text.count("\n", i, end + len(delim))
                tokens.append(Token("str", '""', line))
                i = end + len(delim)
                continue
        # String / char literals (with optional encoding prefix).
        if c in "\"'" or (
                c in "uUL" and i + 1 < n and text[i + 1] in "\"'8"):
            j = i
            while j < n and text[j] not in "\"'":
                j += 1
            if j < n and j - i <= 3:
                quote = text[j]
                k = j + 1
                while k < n:
                    if text[k] == "\\":
                        k += 2
                        continue
                    if text[k] == quote:
                        break
                    if text[k] == "\n":
                        break  # unterminated; bail at EOL
                    k += 1
                kind = "str" if quote == '"' else "char"
                tokens.append(Token(kind, quote + quote, line))
                i = k + 1 if k < n else n
                continue
        # Identifiers / keywords.
        m = _ID_RE.match(text, i)
        if m:
            tokens.append(Token("id", m.group(0), line))
            i = m.end()
            continue
        # Numbers.
        if c.isdigit():
            m = _NUM_RE.match(text, i)
            tokens.append(Token("num", m.group(0), line))
            i = m.end()
            continue
        # Punctuation.
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            i += 1  # unknown byte; skip
    return tokens, includes, nolint
