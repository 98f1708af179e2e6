"""Every defaulted parameter is set by some caller outside the tests.

A default that no entry point ever overrides is a constant spelled as
a parameter: it widens the signature, and nothing keeps the other
values working.  The scan reads the package, ``bench.py``,
``__ray_entry__.py``, ``pipebench/`` and ``scripts/``.  A parameter
counts as set when some call passes it by keyword or by position,
unless the value is an unset pass-through: a parameter of the calling
function that nothing sets either (``col=col`` from an unset ``col``).
A required parameter of a function the scan sees called passes
"unset" on when every call fills it with an unset pass-through, so a
loop through a helper (``f(col=col)`` -> ``helper(col=col)`` ->
``f(col=col)``) sets nothing; such a parameter is never reported
itself.  Calls are matched by the function's name, a constructor by
its class's name.  A callable handed to Ray with its arguments
(``map_batches(Cls, fn_constructor_args=(m,))``, ``fn_kwargs=...``)
counts as called with them.  ``MODULES`` lists the modules that keep
the rule; add one once its unset parameters are gone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["alco_ray/stages/aggregate.py", "alco_ray/stages/bpe.py",
           "alco_ray/stages/dedup.py", "alco_ray/stages/graph.py",
           "alco_ray/stages/join.py", "alco_ray/stages/jpeg.py",
           "alco_ray/stages/model.py", "alco_ray/stages/multimodal.py",
           "alco_ray/stages/sample.py", "alco_ray/stages/similarity.py",
           "alco_ray/stages/sketch.py", "alco_ray/stages/text.py",
           "alco_ray/stages/window.py"]


def _callers() -> list[ast.Module]:
    paths = [*sorted((ROOT / "alco_ray").rglob("*.py")),
             ROOT / "bench.py", ROOT / "__ray_entry__.py",
             *sorted((ROOT / "pipebench").rglob("*.py")),
             *sorted((ROOT / "scripts").rglob("*.py"))]
    return [ast.parse(p.read_text()) for p in paths]


def _signatures(tree: ast.Module) -> dict:
    """name -> (positional parameters, defaulted parameters, required
    parameters) of the module's top-level functions and its classes'
    methods (a constructor under its class's name, ``self`` dropped)."""
    sigs = {}

    def add(name, f, bound):
        a = f.args
        pos = [x.arg for x in a.posonlyargs + a.args][bound:]
        n_req = len(pos) - len(a.defaults)
        dflt, req = pos[n_req:], pos[:n_req]
        for x, d in zip(a.kwonlyargs, a.kw_defaults):
            (req if d is None else dflt).append(x.arg)
        sigs[name] = (pos, dflt, req)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            add(node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in f.decorator_list)
                    add(node.name if f.name == "__init__" else f.name,
                        f, 0 if static else 1)
    return sigs


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


# Keywords that hand Ray a callable's arguments: (positional, keyword,
# leading positionals Ray fills itself, the batch of a function).
_FORWARDS = [("fn_constructor_args", "fn_constructor_kwargs", 0),
             ("fn_args", "fn_kwargs", 1)]


def _forwarded(call: ast.Call) -> ast.Call | None:
    """The call Ray makes of the callable ``call`` passes first
    (``ds.map_batches(Cls, fn_constructor_args=(m,))`` calls
    ``Cls(m)``), or None.  Arguments that are not a literal tuple or
    list, or a dict literal with constant keys, set every parameter,
    like ``*args``/``**kwargs``."""
    kw = {k.arg: k.value for k in call.keywords if k.arg}
    for args_kw, kwargs_kw, lead in _FORWARDS:
        if call.args and (args_kw in kw or kwargs_kw in kw):
            args = kw.get(args_kw, ast.Tuple([]))
            kwargs = kw.get(kwargs_kw, ast.Dict([], []))
            pos = [ast.Constant(None)] * lead + (
                args.elts if isinstance(args, (ast.Tuple, ast.List))
                else [ast.Starred(args)])
            if isinstance(kwargs, ast.Dict) and all(
                    isinstance(k, ast.Constant) for k in kwargs.keys):
                named = [ast.keyword(k.value, v)
                         for k, v in zip(kwargs.keys, kwargs.values)]
            else:
                named = [ast.keyword(None, kwargs)]
            return ast.Call(call.args[0], pos, named)
    return None


def _calls(sigs: dict, trees: list[ast.Module]) -> list:
    """(called name, call node, enclosing function name) for every
    call to a name in ``sigs``, and for every call Ray makes of one
    (:func:`_forwarded`)."""
    out = []

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                for call in (child, _forwarded(child)):
                    if call is not None and _name(call.func) in sigs:
                        out.append((_name(call.func), call, enclosing))
            visit(child, child.name if isinstance(child, ast.FunctionDef)
                  else enclosing)

    for tree in trees:
        visit(tree, None)
    return out


def unset_parameters(module: ast.Module, callers: list[ast.Module]
                     ) -> list[str]:
    """``function.parameter`` for each defaulted parameter of
    ``module`` that no call in ``callers`` sets."""
    sigs = _signatures(module)
    calls = _calls(sigs, callers)
    unset = {(f, p) for f, (_, dflt, _) in sigs.items() for p in dflt}
    called = {name for name, _, _ in calls}
    dead = {(f, p) for f, (_, _, req) in sigs.items() if f in called
            for p in req}  # required, and so far only fed unset values
    changed = True
    while changed:  # a pass-through is set once its source is
        changed = False
        for name, call, enclosing in calls:
            passed = dict(zip(sigs[name][0], call.args))
            passed.update({k.arg: k.value for k in call.keywords if k.arg})
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                passed.update({p: None for p in
                               sigs[name][1] + sigs[name][2]})
            for p, value in passed.items():
                if isinstance(value, ast.Name) and (
                        (enclosing, value.id) in unset
                        or (enclosing, value.id) in dead):
                    continue
                for pool in (unset, dead):
                    if (name, p) in pool:
                        pool.discard((name, p))
                        changed = True
    return sorted(f"{f}.{p}" for f, p in unset)


def test_scan_rules():
    module = ast.parse(
        "def leaf(x, col='a', *, k=1, n=2):\n    pass\n"
        "def mid(x, *, col='a', k=3):\n    return leaf(x, col, k=k)\n"
        "class Enc:\n    def __init__(self, d=8):\n        pass\n")
    callers = [module,
               ast.parse("def run(x):\n    mid(x, k=4)\n    Enc(4)\n")]
    # mid.col is unset, so leaf's positional pass-through of it is too;
    # leaf.k is set through mid.k, which run sets; nothing sets leaf.n
    assert unset_parameters(module, callers) == [
        "leaf.col", "leaf.n", "mid.col"]
    assert unset_parameters(module, callers + [ast.parse(
        "mid(1, col='b')\nleaf(2, n=5)\n")]) == []

    # top -> waves -> top forwards top.col through waves' required
    # col: every call fills waves.col with the unset top.col, so
    # top.col stays unset, and waves.col is not reported
    module = ast.parse(
        "def top(x, *, col='a'):\n    return waves(x, col=col)\n"
        "def waves(x, *, col):\n    return top(x, col=col)\n")
    run = ast.parse("def run(x):\n    top(x)\n")
    assert unset_parameters(module, [module, run]) == ["top.col"]
    # one call with a real value makes waves.col, and so top.col, set
    assert unset_parameters(module, [module, run, ast.parse(
        "waves(1, col='b')\n")]) == []
    # a function nobody calls forwards as before: its required
    # parameters are not unset pass-throughs
    module = ast.parse(
        "def top(x, *, col='a'):\n    return 1\n"
        "def orphan(x, col):\n    return top(x, col=col)\n")
    assert unset_parameters(module, [module, run]) == []

    # a callable handed to Ray with its arguments is called with them:
    # the constructor's after self, a function's after its batch
    module = ast.parse(
        "class Tok:\n    def __init__(self, m, *, mode='a', size=4):\n"
        "        pass\n"
        "def feats(batch, col='x', k=1):\n    pass\n")
    run = ast.parse(
        "def run(ds, m):\n"
        "    ds.map_batches(Tok, fn_constructor_args=(m,),\n"
        "                   fn_constructor_kwargs={'mode': 'b'})\n"
        "    ds.map_batches(feats, fn_args=('y',))\n")
    assert unset_parameters(module, [module, run]) == ["Tok.size",
                                                       "feats.k"]
    # arguments the scan cannot read set every parameter
    assert unset_parameters(module, [module, ast.parse(
        "def run(ds, kw):\n"
        "    ds.map_batches(Tok, fn_constructor_kwargs=kw)\n"
        "    ds.map_batches(feats, fn_kwargs={**kw})\n")]) == []


def test_every_defaulted_parameter_is_set_outside_tests():
    callers = _callers()
    unset = {m: unset_parameters(ast.parse((ROOT / m).read_text()),
                                 callers) for m in MODULES}
    assert unset == {m: [] for m in MODULES}, (
        "defaulted parameters that no caller outside tests/ sets; make "
        "each a module constant or delete it: " + repr(unset))
