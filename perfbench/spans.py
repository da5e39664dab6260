"""Outside-in span recording for the benchmark's traced run.

Nothing under ``src/`` knows about these spans.  :func:`install` replaces
each layer's public entry point with a thin wrapper, patched where the
program looks the name up (a module global such as
``repro.service.register.select_credible_value``, or a class attribute
such as ``ServiceNode.handle``), and :meth:`Patches.restore` puts the
originals back.  The one private target, ``BatchedDispatcher._flush``, is
the in-process dispatcher's delivery event: it gives node handling a parent
and the dispatcher's delivery loop a cost of its own.  A target that a
later version of the program no longer has is skipped and reported, so the
same benchmark keeps running across refactors.

A span is ``(name, start, end, parent, op)``.  The parent is the span that
was open in the *same* asyncio task when the wrapped call began, so a child
always lies inside its parent.  Calls made from event-loop callbacks (the
in-process dispatcher's delivery events) or from background tasks (socket
readers, the gossip task) are roots of their own and carry op id 0: that
work is shared by many operations and belongs to none of them.  Spans are
kept in compact arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import gzip
import importlib
import inspect
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(task, span id)`` of the innermost open span in this context.
_SPAN: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
#: ``(task, op id)`` of the benchmark operation this task is running.
_OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)

#: ``ServiceNode.handle`` methods, coded into the span's ``a`` field.
NODE_METHODS = ("read", "write", "ping", "repair")


def _current_task() -> Optional[asyncio.Task]:
    try:
        return asyncio.current_task()
    except RuntimeError:  # no running loop: plain synchronous caller
        return None


class Recorder:
    """In-memory span store shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.active = False
        self._next_id = 0
        #: open span id -> [name index, child time, time in ``client.*`` children]
        self._open: Dict[int, list] = {}
        # One entry per closed span, in closing order.
        self.span_id = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # 0 = root
        self.parent_name = array("h")  # -1 = root
        self.op = array("i")  # 0 = not one operation's own work
        self.self_time = array("f")  # duration minus every child span
        self.client_child = array("f")  # time in ``client.*`` child spans
        self.a = array("f")  # per-target tag (see ``TARGETS``)
        self.b = array("f")

    def name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    @staticmethod
    def begin_op(op_id: int) -> contextvars.Token:
        """Mark the current task as running benchmark operation ``op_id``."""
        return _OP.set((_current_task(), op_id))

    @staticmethod
    def end_op(token: contextvars.Token) -> None:
        _OP.reset(token)

    def _open_span(self, name_index: int) -> Tuple[int, int, int, contextvars.Token]:
        self._next_id += 1
        span_id = self._next_id
        task = _current_task()
        current = _SPAN.get()
        parent = 0
        if current is not None and current[0] is task and current[1] in self._open:
            parent = current[1]
        op = _OP.get()
        op_id = op[1] if op is not None and op[0] is task else 0
        self._open[span_id] = [name_index, 0.0, 0.0]
        return span_id, parent, op_id, _SPAN.set((task, span_id))

    def _close_span(
        self,
        span_id: int,
        parent: int,
        op_id: int,
        start: float,
        end: float,
        tag: Tuple[float, float],
    ) -> None:
        name_index, child_time, client_time = self._open.pop(span_id)
        duration = end - start
        parent_name = -1
        if parent:
            entry = self._open.get(parent)
            if entry is not None:
                parent_name = entry[0]
                entry[1] += duration
                if self.names[name_index].startswith("client."):
                    entry[2] += duration
        self.span_id.append(span_id)
        self.name.append(name_index)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.parent_name.append(parent_name)
        self.op.append(op_id)
        self.self_time.append(duration - child_time)
        self.client_child.append(client_time)
        self.a.append(tag[0])
        self.b.append(tag[1])

    def wrap(self, name: str, function: Callable, tag: Optional[Callable] = None) -> Callable:
        """A wrapper recording one span per call of ``function``.

        Return values and exceptions pass through unchanged.  ``tag`` maps
        ``(args, kwargs, result)`` of a successful call to the span's two
        numeric fields ``(a, b)``.
        """
        name_index = self.name_id(name)
        recorder = self

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not recorder.active:
                    return await function(*args, **kwargs)
                span_id, parent, op_id, token = recorder._open_span(name_index)
                fields = (0.0, 0.0)
                start = perf_counter()
                try:
                    result = await function(*args, **kwargs)
                    if tag is not None:
                        fields = tag(args, kwargs, result)
                    return result
                finally:
                    end = perf_counter()
                    _SPAN.reset(token)
                    recorder._close_span(span_id, parent, op_id, start, end, fields)

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active:
                return function(*args, **kwargs)
            span_id, parent, op_id, token = recorder._open_span(name_index)
            fields = (0.0, 0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                if tag is not None:
                    fields = tag(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                _SPAN.reset(token)
                recorder._close_span(span_id, parent, op_id, start, end, fields)

        return wrapper

    def __len__(self) -> int:
        return len(self.span_id)

    def rows(self):
        """Every closed span as ``(id, name, start, end, parent, op, a, b)``."""
        names = self.names
        for index in range(len(self.span_id)):
            yield (
                self.span_id[index],
                names[self.name[index]],
                self.start[index],
                self.end[index],
                self.parent[index],
                self.op[index],
                self.a[index],
                self.b[index],
            )

    def write(self, path: str) -> None:
        """Write every span as gzip'd CSV (times in µs from the first span)."""
        origin = min(self.start) if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start_us,end_us,parent,op,a,b\n")
            for span_id, name, start, end, parent, op, a, b in self.rows():
                out.write(
                    f"{span_id},{name},{(start - origin) * 1e6:.3f},"
                    f"{(end - origin) * 1e6:.3f},{parent},{op},{a:g},{b:g}\n"
                )


# -- what gets wrapped ------------------------------------------------------------


def _tag_len_result(args, kwargs, result):
    return (float(len(result)), 0.0)


def _tag_rejected(args, kwargs, result):
    return (0.0 if result else 1.0, 0.0)


def _tag_servers(args, kwargs, result):
    servers = args[1] if len(args) > 1 else kwargs["servers"]
    return (float(len(servers)), float(len(result)))


def _tag_method(args, kwargs, result):
    method = args[1]
    code = NODE_METHODS.index(method) + 1 if method in NODE_METHODS else 0
    return (float(code), 0.0)


def _tag_feed(args, kwargs, result):
    return (float(len(args[1])), float(len(result)))


#: ``(module, attribute path, span name, tag)``.  Attribute paths with a dot
#: are class attributes; the rest are module globals, patched in the module
#: that *calls* them.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.probabilistic", "ProbabilisticQuorumSystem.sample_quorum_block",
     "core.sample", _tag_len_result),
    ("repro.service.register", "select_credible_value", "selection", None),
    ("repro.protocol.signatures", "SignatureScheme.sign", "signatures.sign", None),
    ("repro.protocol.signatures", "SignatureScheme.verify", "signatures.verify",
     _tag_rejected),
    ("repro.service.register", "AsyncRegister.read", "register.read", None),
    ("repro.service.register", "AsyncRegister.write", "register.write", None),
    ("repro.service.client", "AsyncQuorumClient.read", "client.read", None),
    ("repro.service.client", "AsyncQuorumClient.write", "client.write", None),
    ("repro.service.client", "AsyncQuorumClient.assemble_live_quorum",
     "client.probe", None),
    ("repro.service.dispatch", "BatchedDispatcher.fan_out", "dispatch.fan_out",
     _tag_servers),
    ("repro.service.dispatch", "BatchedDispatcher._flush", "dispatch.flush", None),
    ("repro.service.node", "ServiceNode.handle", "node.handle", _tag_method),
    ("repro.service.net", "request_tail", "wire.encode_tail", None),
    ("repro.service.net", "encode_request_frame", "wire.encode_request",
     _tag_len_result),
    ("repro.service.net", "encode_response_frame", "wire.encode_response",
     _tag_len_result),
    ("repro.service.wire", "FrameDecoder.feed", "wire.decode", _tag_feed),
    ("repro.service.net", "TcpDispatcher.fan_out", "net.fan_out", _tag_servers),
    ("repro.service.gossip", "GossipService.run_once", "gossip.run_once", None),
)


class Patches:
    """The wrappers currently installed, and how to take them out again."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        #: ``(owner, attribute, original, owned)``; ``owned`` is whether the
        #: original lived in the owner's own ``__dict__`` (else inherited).
        self.applied: List[Tuple[Any, str, Any, bool]] = []
        #: Targets this version of the program does not have.
        self.skipped: List[str] = []

    def restore(self) -> None:
        """Put every original back (idempotent) and stop recording."""
        self.recorder.active = False
        while self.applied:
            owner, attribute, original, owned = self.applied.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any, bool]:
    owner: Any = importlib.import_module(module_name)
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attribute)
    owned = not isinstance(owner, type) or attribute in vars(owner)
    return owner, attribute, original, owned


def install(recorder: Recorder, targets=TARGETS) -> Patches:
    """Wrap every available target; recording starts immediately."""
    patches = Patches(recorder)
    for module_name, path, span_name, tag in targets:
        try:
            owner, attribute, original, owned = _resolve(module_name, path)
        except (ImportError, AttributeError):
            patches.skipped.append(f"{module_name}.{path}")
            continue
        setattr(owner, attribute, recorder.wrap(span_name, original, tag))
        patches.applied.append((owner, attribute, original, owned))
    recorder.active = True
    return patches
