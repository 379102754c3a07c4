"""Well-formedness parser: token stream -> :class:`~repro.ssd.model.Document`.

The parser enforces the structural rules the lexer cannot: properly nested
and matching tags, exactly one root element, no character data outside the
root, and the XML declaration (treated as a PI with target ``xml``) only at
the very beginning.
"""

from __future__ import annotations

from ..errors import XmlSyntaxError
from .lexer import Lexer, Token, TokenType
from .model import Comment, Document, Element, ProcessingInstruction, Text

__all__ = ["parse_document", "parse_fragment"]


def parse_document(source: str) -> Document:
    """Parse a complete XML document from a string.

    Raises :class:`~repro.errors.XmlSyntaxError` on malformed input.
    Whitespace-only text between the document's prolog/epilog markup is
    dropped; all whitespace inside the root element is preserved.
    """
    document = Document()
    stack: list[Element] = []
    seen_root = False
    seen_any = False

    for token in Lexer(source).tokens():
        if token.type is TokenType.EOF:
            break
        if token.type is TokenType.PI and token.value == "xml":
            if seen_any:
                raise XmlSyntaxError(
                    "XML declaration only allowed at document start",
                    token.line, token.column,
                )
            seen_any = True
            continue
        seen_any = True
        if stack:
            _feed_content(stack, token)
            continue
        # -- at document level ------------------------------------------------
        if token.type is TokenType.TEXT:
            if token.value.strip():
                raise XmlSyntaxError(
                    "character data outside the root element",
                    token.line, token.column,
                )
        elif token.type is TokenType.COMMENT:
            document.append(Comment(token.value))
        elif token.type is TokenType.PI:
            document.append(ProcessingInstruction(token.value, token.data))
        elif token.type is TokenType.DOCTYPE:
            if seen_root:
                raise XmlSyntaxError(
                    "DOCTYPE must precede the root element", token.line, token.column
                )
            if document.doctype_name is not None:
                raise XmlSyntaxError("duplicate DOCTYPE", token.line, token.column)
            document.doctype_name = token.value
            document.doctype_internal = token.data or None
        elif token.type is TokenType.START_TAG:
            if seen_root:
                raise XmlSyntaxError(
                    f"multiple root elements (second: <{token.value}>)",
                    token.line, token.column,
                )
            seen_root = True
            element = Element(token.value, token.attributes)
            document.append(element)
            if not token.self_closing:
                stack.append(element)
        elif token.type is TokenType.CDATA:
            raise XmlSyntaxError(
                "CDATA section outside the root element", token.line, token.column
            )
        elif token.type is TokenType.END_TAG:
            raise XmlSyntaxError(
                f"unexpected end tag </{token.value}>", token.line, token.column
            )

    if stack:
        open_tag = stack[-1].tag
        raise XmlSyntaxError(f"unclosed element <{open_tag}>")
    if document.root is None:
        raise XmlSyntaxError("document has no root element")
    return document


def parse_fragment(source: str, wrapper_tag: str = "fragment") -> Element:
    """Parse an XML fragment (zero or more sibling nodes).

    The fragment is parsed inside a synthetic wrapper element whose tag is
    ``wrapper_tag``; the wrapper is returned, with the fragment's nodes as its
    children.  Useful in tests and for construction templates.
    """
    wrapped = f"<{wrapper_tag}>{source}</{wrapper_tag}>"
    return parse_document(wrapped).root  # type: ignore[return-value]


def _feed_content(stack: list[Element], token: Token) -> None:
    """Apply one token while inside the root element."""
    current = stack[-1]
    if token.type is TokenType.TEXT:
        current.append(Text(token.value))
    elif token.type is TokenType.CDATA:
        current.append(Text(token.value, is_cdata=True))
    elif token.type is TokenType.COMMENT:
        current.append(Comment(token.value))
    elif token.type is TokenType.PI:
        current.append(ProcessingInstruction(token.value, token.data))
    elif token.type is TokenType.START_TAG:
        element = Element(token.value, token.attributes)
        current.append(element)
        if not token.self_closing:
            stack.append(element)
    elif token.type is TokenType.END_TAG:
        if token.value != current.tag:
            raise XmlSyntaxError(
                f"mismatched end tag </{token.value}>, expected </{current.tag}>",
                token.line, token.column,
            )
        stack.pop()
    elif token.type is TokenType.DOCTYPE:
        raise XmlSyntaxError(
            "DOCTYPE inside the root element", token.line, token.column
        )
