"""The hand-written expression scanner, kept as the reference path for
the one-regular-expression scanner in chiraltorus.jetcalc.

It walks the text one character at a time with str.isdigit, str.isalpha
and str.isalnum, which also take non-ASCII digits and letters; on ASCII
text it yields the same tokens as the library, which refuses every
non-ASCII character.
"""

from chiraltorus.exactlin import ChiraltorusError


def tokenize(text: str):
    toks = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch in " \t\n":
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("num", text[k:j]))
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[k:j]))
            k = j
            continue
        if ch in "+-*^()./":
            toks.append((ch, ch))
            k += 1
            continue
        raise ChiraltorusError(f"unexpected character {ch!r} in expression")
    toks.append(("end", ""))
    return toks
