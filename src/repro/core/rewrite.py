"""Small IR rewriting utilities shared by the compiler passes."""

#: Operand fields read (not written) by each statement kind.
_USE_FIELDS = {
    "assign": ("args",),
    "load": ("array", "index"),
    "store": ("array", "index", "value"),
    "prefetch": ("array", "index"),
    "enq": ("value",),
    "enq_dist": ("value", "replica"),
    "is_control": ("src",),
    "for": ("lo", "hi", "step"),
    "if": ("cond",),
    "call": ("args",),
    "write_shared": ("value",),
    "atomic_rmw": ("array", "index", "value"),
}


def substitute_uses(body, mapping):
    """Replace register *uses* per ``mapping`` throughout ``body`` (in place).

    Definitions are left untouched, so renaming a value's consumers away
    from a multiply-defined register is safe.
    """
    for stmt in body:
        fields = _USE_FIELDS.get(stmt.kind, ())
        for field in fields:
            value = getattr(stmt, field)
            if field == "args":
                stmt.args = [mapping.get(a, a) if type(a) is str else a for a in value]
            elif type(value) is str and value in mapping:
                setattr(stmt, field, mapping[value])
        for block in stmt.blocks():
            substitute_uses(block, mapping)


def remove_stmts(body, victim_ids):
    """Remove statements whose id() is in ``victim_ids``, recursively."""
    body[:] = [s for s in body if id(s) not in victim_ids]
    for stmt in body:
        for block in stmt.blocks():
            remove_stmts(block, victim_ids)


def find_container(body, target):
    """The statement list directly holding ``target`` (by identity), or None."""
    for stmt in body:
        if stmt is target:
            return body
    for stmt in body:
        for block in stmt.blocks():
            found = find_container(block, target)
            if found is not None:
                return found
    return None
