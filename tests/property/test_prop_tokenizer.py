"""Property tests for the SDC tokenizer."""

import string

from hypothesis import given, settings, strategies as st

from repro.errors import SdcSyntaxError
from repro.sdc import tokenize

word = st.text(alphabet=string.ascii_letters + string.digits + "_/*.-",
               min_size=1, max_size=8).filter(
    lambda s: not s.startswith("-") or not s[1:2].isdigit())


@st.composite
def balanced_sdc(draw):
    """Random command text with balanced brackets/braces."""
    parts = [draw(word)]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["word", "bracket", "brace", "string"]))
        if kind == "word":
            parts.append(draw(word))
        elif kind == "bracket":
            inner = " ".join(draw(st.lists(word, min_size=1, max_size=3)))
            parts.append(f"[{inner}]")
        elif kind == "brace":
            inner = " ".join(draw(st.lists(word, min_size=0, max_size=3)))
            parts.append(f"{{{inner}}}")
        else:
            inner = " ".join(draw(st.lists(word, min_size=0, max_size=3)))
            parts.append(f'"{inner}"')
    return " ".join(parts)


class TestTokenizerProperties:
    @given(balanced_sdc())
    @settings(max_examples=200)
    def test_balanced_text_tokenizes(self, text):
        commands = tokenize(text)
        assert len(commands) == 1
        assert commands[0].name

    @given(st.lists(balanced_sdc(), min_size=0, max_size=5))
    def test_one_command_per_line(self, lines):
        text = "\n".join(lines)
        commands = tokenize(text)
        assert len(commands) == len([l for l in lines if l.strip()])

    @given(balanced_sdc())
    def test_comments_never_change_preceding_tokens(self, text):
        plain = tokenize(text)
        commented = tokenize(text + " # a comment [unbalanced {")
        assert [t.value for t in plain[0].tokens] \
            == [t.value for t in commented[0].tokens]

    @given(st.text(alphabet="[]{}\"abc ", max_size=30))
    @settings(max_examples=300)
    def test_never_crashes_only_raises_sdc_errors(self, text):
        try:
            tokenize(text)
        except SdcSyntaxError:
            pass  # the only acceptable failure mode

    @given(st.lists(word, min_size=1, max_size=6))
    def test_word_roundtrip(self, words):
        text = " ".join(words)
        commands = tokenize(text)
        values = [commands[0].name] + [t.value for t in commands[0].tokens]
        assert values == words
