"""A linker: combine separately assembled modules into one executable.

Spike is a *post-link-time* optimizer precisely because interprocedural
facts only exist once separately compiled modules are combined — the
paper's Figure 1 stresses that "the calling procedure and the called
procedure may be in separately compiled modules".  This module supplies
that missing toolchain step for the reproduction: assemble modules
independently, with **unresolved external references**, then link them
into a single SAX image.

A module is written exactly like a standalone program, plus:

* ``asm.extern("name")`` declares an external routine — ``bsr``,
  ``li rd, &name`` and pointer tables may reference it, and the linker
  resolves it against another module's definition;
* every routine a module defines is visible to the other modules
  (there is no static/local distinction — the 1990s linkers Spike sat
  behind exported everything into the image's symbol table anyway).

The linker lays modules out in order, merges their data sections
(rebasing each module's data labels), resolves externals, and emits one
image through the normal :class:`~repro.program.asm.Assembler`
machinery — so jump tables, data relocations and call-target hints all
survive linking.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set

from repro.program.asm import Assembler, AssemblyError
from repro.program.image import DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE, ExecutableImage


class LinkError(AssemblyError):
    """Raised for unresolved or multiply-defined symbols."""


class ObjectModule(Assembler):
    """An assembler that may reference external routines.

    Use exactly like :class:`~repro.program.asm.Assembler`, but
    ``extern`` names may be used as ``bsr`` targets, ``li`` operands,
    pointer-table members and hint targets.  ``build()`` is disabled —
    an object module only becomes executable by linking.
    """

    def __init__(self, name: str = "module") -> None:
        super().__init__()
        self.module_name = name
        self._externals: Set[str] = set()

    def extern(self, name: str) -> "ObjectModule":
        """Declare ``name`` as defined in some other module."""
        self._externals.add(name)
        return self

    @property
    def externals(self) -> Set[str]:
        return set(self._externals)

    def defined_routines(self) -> List[str]:
        return [record.name for record in self._routines]

    def build(self, entry: Optional[str] = None) -> ExecutableImage:
        raise LinkError(
            f"module {self.module_name!r} cannot build standalone; "
            f"link it (repro.program.linker.link_modules)"
        )


def link_modules(
    modules: Sequence[ObjectModule],
    entry: str,
    text_base: int = DEFAULT_TEXT_BASE,
    data_base: int = DEFAULT_DATA_BASE,
) -> ExecutableImage:
    """Link object modules into one executable image.

    Checks that every external reference has exactly one definition and
    that no routine is defined twice, then concatenates the modules
    (code and data) into a single resolution pass.
    """
    if not modules:
        raise LinkError("nothing to link")

    defined: Dict[str, str] = {}
    for module in modules:
        for name in module.defined_routines():
            if name in defined:
                raise LinkError(
                    f"routine {name!r} defined in both {defined[name]!r} "
                    f"and {module.module_name!r}"
                )
            defined[name] = module.module_name
    for module in modules:
        for name in module.externals:
            if name not in defined:
                raise LinkError(
                    f"module {module.module_name!r}: unresolved external "
                    f"{name!r}"
                )
    if entry not in defined:
        raise LinkError(f"entry routine {entry!r} is not defined")

    # Merge into one resolving assembler.  Data labels are prefixed per
    # module so modules may reuse label names; code references to data
    # labels are rewritten with the same prefix.  Routine names form the
    # global namespace (checked above).
    linked = Assembler(text_base=text_base, data_base=data_base)

    for module in modules:
        prefix = f"{module.module_name}."
        base = len(linked._data)
        linked._data += module._data
        for label, offset in module._data_labels.items():
            linked._data_labels[prefix + label] = base + offset
        for offset, routine_name in module._data_pointers:
            linked._data_pointers.append((base + offset, routine_name))

    slot_shift = 0
    for module in modules:
        prefix = f"{module.module_name}."
        # Routine records (the module's last routine is still open).
        for record in module._routines:
            end = record.end_slot if record.end_slot >= 0 else len(module._slots)
            linked._add_routine(
                dataclasses.replace(
                    record,
                    start_slot=record.start_slot + slot_shift,
                    end_slot=end + slot_shift,
                )
            )
        for key, slot in module._labels.items():
            linked._labels[key] = slot + slot_shift
        for slot in module._slots:
            if slot.kind in ("li_high", "li_low") and slot.label == "data":
                slot = dataclasses.replace(slot, symbol=prefix + slot.symbol)
            linked._slots.append(slot)
        for table_name, label_keys in module._jump_tables.items():
            if table_name in linked._jump_tables:
                raise LinkError(
                    f"jump table {table_name!r} defined in multiple modules"
                )
            linked._jump_tables[table_name] = list(label_keys)
        for slot_index, table_name in module._jump_sites:
            linked._jump_sites.append((slot_index + slot_shift, table_name))
        for slot_index, hint_names in module._call_hints:
            linked._call_hints.append((slot_index + slot_shift, hint_names))
        slot_shift += len(module._slots)

    return linked.build(entry=entry)
