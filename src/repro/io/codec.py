"""One codec for the documents that are read back from disk or the wire.

Every such document is a frozen dataclass.  :func:`encode` writes one as
a JSON-ready dict, field by field and shallowly (``Dict[str, Any]``
payloads are passed through, never copied); :func:`decode` builds one
back with a JSON type check on every field and raises ``ValueError`` (or
the *error* subclass given) naming the field path, e.g.
``RunSpec.kernel.use_virtual_time: expected a bool, got 'false'``.  The
rules that keep old bytes and keys are declared on the classes with
:func:`document`.  Plans are built per class on first use, never at
import.  docs/architecture.md, "Documents", has the type rules and the
declarations of every document kind.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import functools
import re
import typing
from itertools import repeat
from typing import Annotated, Any, Callable, Dict, List, Optional, Tuple, Type, Union

from repro.io.canonical import canonical_json, sha256_hex

__all__ = ["document", "encode", "decode", "key", "keyed_address"]


@dataclasses.dataclass(frozen=True)
class Rules:
    """The document rules of one class (see :func:`document`)."""

    header: Optional[Tuple[str, int]] = None
    omit_default: Tuple[str, ...] = ()
    unkeyed: Tuple[str, ...] = ()
    strict: bool = False
    order: Optional[Tuple[str, ...]] = None


def document(**rules: Any) -> Callable[[type], type]:
    """Class decorator declaring a dataclass's document rules:

    * ``header=(format, version)``: written first, checked on decode;
    * ``omit_default``: fields left out while they equal their default,
      so documents written before a field existed keep their bytes;
    * ``unkeyed``: fields left out of keys (:func:`key`, ``keyed=True``);
    * ``strict=True``: an unknown field is an error, not ignored;
    * ``order``: every field, in the order documents write them, where
      that predates the class's declaration order.
    """

    def apply(cls: type) -> type:
        cls.__document__ = Rules(**rules)
        return cls

    return apply


class _Error(Exception):
    """A decode failure; containers add their path part on the way out."""

    def __init__(self, problem: str) -> None:
        super().__init__(problem)
        self.path: List[str] = []


def _show(value: Any) -> str:
    if isinstance(value, (dict, list)):
        return "a JSON " + ("object" if isinstance(value, dict) else "array")
    text = "null" if value is None else repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _expect(tp: type, what: str) -> Callable[[Any], Any]:
    """A decoder taking only JSON values of type *tp*; for ``float``, any
    number but a bool."""

    def check(v: Any) -> Any:
        if type(v) is tp or (tp is float and isinstance(v, (int, float)) and type(v) is not bool):
            return v
        raise _Error(f"expected {what}, got {_show(v)}")

    return check


_SCALARS = {
    bool: _expect(bool, "a bool"),
    int: _expect(int, "an integer"),
    float: _expect(float, "a number"),
    str: _expect(str, "a string"),
}
_object = _expect(dict, "an object")
_list = _expect(list, "a list")

#: An encoder takes ``(value, keyed)`` and a decoder the JSON value;
#: ``None`` means the value is its own form (or, decoding, anything goes).
_Enc = Optional[Callable[[Any, bool], Any]]
_Dec = Optional[Callable[[Any], Any]]


def _decode_all(decs: Any, items: Any, parts: Any) -> List[Any]:
    """``dec(item)`` for each (decoder, item) pair; a failure's path part
    is built only when it fails."""
    out: List[Any] = []
    try:
        for dec, item in zip(decs, items):
            out.append(item if dec is None else dec(item))
    except _Error as exc:
        exc.path.append(parts(len(out)))
        raise
    return out


def _index(i: int) -> str:
    return f"[{i}]"


@functools.lru_cache(maxsize=None)
def _codec_for(tp: Any, noun: Optional[str] = None) -> Tuple[_Enc, _Dec]:
    """The (encoder, decoder) pair of one annotated type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Annotated:
        return _codec_for(args[0], args[1])
    if tp is Any:
        return None, None
    if tp in _SCALARS:
        return None, _SCALARS[tp]
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        noun = noun or re.sub(r"(?<!^)(?=[A-Z])", " ", tp.__name__).lower()

        def dec_member(v: Any) -> Any:
            if type(v) is str and v in tp.__members__:
                return tp.__members__[v]
            raise _Error(f"unknown {noun} {_show(v)} (known: {', '.join(tp.__members__)})")

        return (lambda v, keyed: tp(v).name), dec_member
    if dataclasses.is_dataclass(tp):
        plan = _plan(tp)
        return plan.encode, plan.decode
    if origin is Union and type(None) in args and len(args) == 2:
        enc, dec = _codec_for(next(a for a in args if a is not type(None)), noun)
        return (
            enc and (lambda v, keyed: None if v is None else enc(v, keyed)),
            dec and (lambda v: None if v is None else dec(v)),
        )
    if origin is Union:  # dataclasses told apart by their ``kind``
        by_kind = {m.kind: m for m in args}

        def dec_tagged(v: Any) -> Any:
            tag = _object(v).get("kind")
            if type(tag) is not str or tag not in by_kind:
                raise _Error(f"unknown {noun} kind {_show(tag)} "
                             f"(known: {', '.join(sorted(by_kind))})")
            return _plan(by_kind[tag]).decode(v, ignore="kind")

        return (lambda v, keyed: _plan(type(v)).encode(v, keyed, {"kind": v.kind})), dec_tagged
    if origin is tuple and args[-1] is not Ellipsis:
        codecs = [_codec_for(a) for a in args]
        decs = [d for _, d in codecs]

        def dec_fixed(v: Any) -> Tuple[Any, ...]:
            if len(_list(v)) != len(codecs):
                raise _Error(f"expected {len(codecs)} items, got {len(v)}")
            return tuple(_decode_all(decs, v, _index))

        return (lambda v, keyed: [x if e is None else e(x, keyed)
                                  for (e, _), x in zip(codecs, v)]), dec_fixed
    if origin in (tuple, list):
        enc, dec = _codec_for(args[0])
        wrap = tuple if origin is tuple else list

        def dec_items(v: Any) -> Any:
            items = _list(v)
            return wrap(items if dec is None else _decode_all(repeat(dec), items, _index))

        if enc is None:
            return (lambda v, keyed: v if type(v) is list else list(v)), dec_items
        return (lambda v, keyed: [enc(x, keyed) for x in v]), dec_items
    if origin in (dict, collections.abc.Mapping):
        (key_enc, key_dec), (val_enc, val_dec) = _codec_for(args[0]), _codec_for(args[1])
        if key_enc is None and val_enc is None and val_dec is None:
            return None, _object  # a JSON payload: checked, never copied

        def dec_map(v: Any) -> Dict[Any, Any]:
            keys = list(_object(v))

            def part(i: int) -> str:
                return f"[{keys[i]!r}]"

            return dict(zip(_decode_all(repeat(key_dec), keys, part),
                            _decode_all(repeat(val_dec), v.values(), part)))

        return (lambda v, keyed: {
            k if key_enc is None else key_enc(k, keyed): x if val_enc is None else val_enc(x, keyed)
            for k, x in v.items()
        }), dec_map
    raise TypeError(f"the document codec has no rule for the type {tp!r}")


#: No value: a field with no default to be omitted at, or missing from a document.
_UNSET = object()


class _Plan:
    """How one dataclass is written and read, resolved on first use."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        rules: Rules = getattr(cls, "__document__", Rules())
        self.header, self.strict = rules.header, rules.strict
        hints = typing.get_type_hints(cls, include_extras=True)
        fields = {f.name: f for f in dataclasses.fields(cls)}
        names = rules.order or tuple(fields)
        if set(names) != set(fields) or not {*rules.omit_default, *rules.unkeyed} <= set(fields):
            raise TypeError(f"{cls.__name__}: document rules name unknown fields")
        #: (name, encoder, the default it is omitted at or _UNSET, unkeyed)
        self.write: List[Tuple[str, _Enc, Any, bool]] = []
        #: (name, decoder, required, path part)
        self.read: List[Tuple[str, _Dec, bool, str]] = []
        for name in names:
            f = fields[name]
            enc, dec = _codec_for(hints[name])
            if f.default is not dataclasses.MISSING:
                default = f.default
            elif f.default_factory is not dataclasses.MISSING:
                default = f.default_factory()
            else:
                default = dataclasses.MISSING
            omit = default if name in rules.omit_default else _UNSET
            self.write.append((name, enc, omit, name in rules.unkeyed))
            self.read.append((name, dec, default is dataclasses.MISSING, "." + name))
        self.known = set(fields) | ({"format", "version"} if self.header else set())

    def encode(self, obj: Any, keyed: bool, doc: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        doc = {} if doc is None else doc
        if self.header is not None:
            doc["format"], doc["version"] = self.header
        for name, enc, omit, unkeyed in self.write:
            value = getattr(obj, name)
            if not (unkeyed and keyed) and (omit is _UNSET or value != omit):
                doc[name] = value if enc is None else enc(value, keyed)
        return doc

    def decode(self, doc: Any, ignore: Optional[str] = None) -> Any:
        _object(doc)
        if self.header is not None:
            fmt, version = self.header
            if doc.get("format") != fmt:
                raise _Error(f"not a {fmt} document (format={_show(doc.get('format'))})")
            if doc.get("version") != version:
                raise _Error(f"unsupported {fmt} version {_show(doc.get('version'))}")
        if self.strict and not self.known.issuperset(doc):
            unknown = sorted(set(doc) - self.known - {ignore})
            if unknown:
                raise _Error(f"unknown field(s) {', '.join(map(repr, unknown))}")
        kwargs = {}
        for name, dec, required, part in self.read:
            value = doc.get(name, _UNSET)
            if value is _UNSET:
                if required:
                    raise _Error(f"missing required field {name!r}")
                continue
            if dec is not None:
                try:
                    value = dec(value)
                except _Error as exc:
                    exc.path.append(part)
                    raise
            kwargs[name] = value
        try:
            return self.cls(**kwargs)
        except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
            raise _Error(str(exc) or type(exc).__name__) from exc


_PLANS: Dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _PLANS[cls] = _Plan(cls)
    return plan


def encode(value: Any, tp: Any = None, *, keyed: bool = False) -> Any:
    """*value* as a JSON-ready value: a dict for a dataclass, or by type *tp*.

    ``keyed=True`` leaves out every field declared ``unkeyed``, at every
    depth: the form a key hashes.
    """
    if tp is None:
        return _plan(type(value)).encode(value, keyed)
    enc, _ = _codec_for(tp)
    return value if enc is None else enc(value, keyed)


def decode(tp: Any, doc: Any, *, error: Type[ValueError] = ValueError) -> Any:
    """The value *doc* describes, of dataclass *tp* or of an
    ``Annotated[type, label]`` whose label names it; a bad document raises
    *error* with the path of the bad field."""
    try:
        if dataclasses.is_dataclass(tp):
            return _plan(tp).decode(doc)
        _, dec = _codec_for(tp)
        return doc if dec is None else dec(doc)
    except _Error as exc:
        root = tp.__name__.lstrip("_") if isinstance(tp, type) else tp.__metadata__[0]
        raise error(f"{root}{''.join(reversed(exc.path))}: {exc}") from exc.__cause__


def key(value: Any) -> str:
    """The content address of a dataclass: sha256 of its keyed canonical JSON."""
    return sha256_hex(canonical_json(_plan(type(value)).encode(value, True)))


def keyed_address(cls: type, doc: Dict[str, Any]) -> str:
    """The content address of a stored *cls* document: sha256 of its
    canonical JSON without the fields *cls* declares ``unkeyed``."""
    unkeyed = getattr(cls, "__document__", Rules()).unkeyed
    return sha256_hex(canonical_json({k: v for k, v in doc.items() if k not in unkeyed}))
