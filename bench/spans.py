"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the mipcert modules with
timing wrappers, at every place they are called from: the modules use
`from .x import f`, so a call goes through the caller's own binding and
patching only the defining module would record nothing.  Spans are kept in
memory with their parent, and `fold()` turns them into per-name call
counts, inclusive time and self time (duration minus the part covered by
child spans).  `uninstall()` restores every original binding, so untraced
passes run unwrapped code.
"""

import importlib
import time
from collections import defaultdict

MODULES = ("exact", "model", "trees", "rules", "certfile", "certifier", "oracle")

# (span name, defining module, function, calling modules or None for all)
FUNCTION_SPANS = (
    ("certfile.parse_problem", "certfile", "parse_problem_blocks", None),
    ("exact.linear_combine", "exact", "linear_combine", None),
    ("exact.round_integral", "exact", "round_integral", None),
    ("exact.dominates", "exact", "dominates", None),
    ("trees.propagate_box", "trees", "propagate_box", None),
    ("trees.dcn_and_compare", "trees", "dcn_and_compare", None),
    ("trees.check_tree_consistency", "trees", "check_tree_consistency", None),
    ("certifier.symmetry", "certifier", "is_formulation_symmetry", None),
    ("certifier.emit", "certfile", "fmt_step", ("certifier",)),
    ("certifier.cuts", "certifier", "emit_sst_cuts", ("certifier",)),
    ("certifier.cuts", "certifier", "emit_lex_constraint", ("certifier",)),
    ("certifier.cuts", "certifier", "emit_cg_cut", ("certifier",)),
    ("certifier.cuts", "certifier", "emit_cover_cut", ("certifier",)),
)

# (span name, module, class, method): methods are patched on the class
METHOD_SPANS = (
    ("model.integral_vars", "model", "Configuration", "integral_vars"),
    ("certifier.search", "certifier", "Certifier", "run"),
)

# (counter name, module, class, method): counted, not timed
METHOD_COUNTS = (
    ("model.linear_eq", "model", "Linear", "__eq__"),
    ("trees.apply_constraint", "trees", "AffineMap", "apply_constraint"),
)


def _module(name):
    return importlib.import_module("mipcert." + name)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(int)
        self.header = "?"        # header of the step block parsed last
        self._patches = []       # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def timed(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _iter_blocks(self, fn):
        """Time each advance of the block iterator, and count the tokens
        of every block it yields."""
        def wrapper(lines):
            blocks = fn(lines)
            while True:
                idx = self._open("certfile.tokenize")
                try:
                    block = next(blocks)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                tokens = [block.tokens] + [t for _, t in block.body]
                self.counts["certfile.tokens"] += sum(map(len, tokens))
                self.counts["certfile.zero_tokens"] += sum(t.count("0") for t in tokens)
                yield block
        return wrapper

    def _parse_step(self, fn):
        timed = self.timed("certfile.parse_step", fn)

        def wrapper(block, n):
            self.header = block.tokens[0]
            return timed(block, n)
        return wrapper

    def _apply_step(self, fn):
        def wrapper(cfg, step):
            idx = self._open("rules." + self.header)
            try:
                return fn(cfg, step)
            finally:
                self._close(idx)
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, defining, func, callers, make_wrapper):
        original = getattr(_module(defining), func)
        wrapper = make_wrapper(original)
        for caller in callers or MODULES:
            module = _module(caller)
            if getattr(module, func, None) is original:
                self._patch(module, func, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch_function("certfile", "iter_blocks", None, self._iter_blocks)
        self._patch_function("certfile", "parse_step", ("certfile",), self._parse_step)
        self._patch_function("rules", "apply_step", ("certfile",), self._apply_step)
        for name, defining, func, callers in FUNCTION_SPANS:
            self._patch_function(defining, func, callers,
                                 lambda fn, name=name: self.timed(name, fn))
        for name, module, cls, method in METHOD_SPANS:
            owner = getattr(_module(module), cls)
            self._patch(owner, method, self.timed(name, owner.__dict__[method]))
        for name, module, cls, method in METHOD_COUNTS:
            owner = getattr(_module(module), cls)
            self._patch(owner, method, self.counted(name, owner.__dict__[method]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def bindings(self):
        """Number of bindings currently replaced by wrappers."""
        return len(self._patches)

    # -- aggregation ---------------------------------------------------------

    def fold(self, into):
        """Add the recorded spans and counts to the totals dict `into`
        (name -> [calls, inclusive seconds, self seconds]), then forget
        them."""
        if self.stack:
            raise RuntimeError("fold() inside an open span")
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child_time):
            row = into.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        for name, count in self.counts.items():
            into.setdefault(name, [0, 0.0, 0.0])[0] += count
        self.spans = []
        self.counts.clear()
