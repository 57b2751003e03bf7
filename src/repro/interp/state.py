"""Concrete data-memory layout for interpreted programs.

The paper's attacks tamper *memory addresses* (a stack slot hit by a
buffer overflow, an arbitrary location via a format string).  To make
those attacks meaningful, every variable gets a concrete word address:

* globals sit at ``GLOBAL_BASE`` upward, in declaration order;
* each function activation gets a frame at ``STACK_BASE`` plus the sum
  of its callers' frame sizes (a downward-growing stack flipped upward
  for simplicity — the geometry is irrelevant to the experiments, the
  *addressability* is what matters);
* arrays occupy ``size`` consecutive words.

Memory is a word-addressed flat store; unwritten words read 0.  There
is deliberately no bounds enforcement — a tampered pointer or index
lands wherever it lands, exactly like the unprotected hardware the
paper assumes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.function import IRFunction, IRModule
from ..ir.instructions import AddrOf, Instruction, Load, Store, Variable

#: First word address of the globals segment.
GLOBAL_BASE = 0x0000_1000
#: First word address of the stack segment.
STACK_BASE = 0x0010_0000


@dataclass
class FrameLayout:
    """Frame-relative offsets of one function's variables."""

    function_name: str
    offsets: Dict[Variable, int]
    size: int


def layout_frame(fn: IRFunction) -> FrameLayout:
    """Assign frame offsets to a function's parameters and locals."""
    offsets: Dict[Variable, int] = {}
    cursor = 0
    for var in fn.frame_variables:
        offsets[var] = cursor
        cursor += var.size
    return FrameLayout(fn.name, offsets, cursor)


class ModuleLayout:
    """A module's address assignment, computed once and shared by every run.

    Holds the variable-keyed maps (global addresses, frame layouts) and
    the identity-keyed table the interpreter's hot loop reads instead:
    ``slots`` maps ``id(instruction)`` of each ``Load``/``Store``/
    ``AddrOf`` to its variable's *slot* — a global's absolute address
    (``>= 0``) or a local's frame offset ``o`` encoded as ``~o``
    (``< 0``).  The table covers the module's instructions as they are
    when the layout is first built; optimization passes only rewrite
    or drop memory instructions, never add them.  The covered
    instructions are kept alive, so no later object can take one of
    their ids and silently inherit its slot.
    """

    def __init__(self, module: IRModule):
        self.global_addresses: Dict[Variable, int] = {}
        cursor = GLOBAL_BASE
        for var in module.globals:
            self.global_addresses[var] = cursor
            cursor += var.size
        self.global_end = cursor
        self.frame_layouts: Dict[str, FrameLayout] = {
            fn.name: layout_frame(fn) for fn in module.functions
        }
        # Flattened local-offset index: first owning frame wins, in
        # declaration order.
        self._local_offsets: Dict[Variable, int] = {}
        for layout in self.frame_layouts.values():
            for var, offset in layout.offsets.items():
                if var not in self._local_offsets:
                    self._local_offsets[var] = offset
        self.initial_words: Dict[int, int] = {
            self.global_addresses[var]: value
            for var, value in module.global_inits.items()
        }
        self._covered: List[Instruction] = [
            instruction
            for fn in module.functions
            for instruction in fn.instructions()
            if instruction.__class__ in (Load, Store, AddrOf)
        ]
        self.slots: Dict[int, int] = {}
        for instruction in self._covered:
            try:
                self.slots[id(instruction)] = self.slot(instruction.var)
            except KeyError:
                pass  # executing it raises KeyError, as address_of does
        #: function name -> (frame size, parameter slots in order)
        self.frames: Dict[str, Tuple[int, Tuple[int, ...]]] = {
            fn.name: (
                self.frame_layouts[fn.name].size,
                tuple(self.slot(param) for param in fn.params),
            )
            for fn in module.functions
        }

    def slot(self, var: Variable) -> int:
        """``var``'s slot: its global address, or ``~offset`` for a local."""
        address = self.global_addresses.get(var)
        if address is not None:
            return address
        offset = self._local_offsets.get(var)
        if offset is None:
            raise KeyError(f"variable {var} has no frame")
        return ~offset


#: ``id(module)`` -> its layout; entries leave with their module.
_LAYOUTS: Dict[int, ModuleLayout] = {}


def module_layout(module: IRModule) -> ModuleLayout:
    """The module's cached :class:`ModuleLayout`, built on first use.

    Kept beside the module rather than on it, so pickling a module
    (the compile cache, shard hand-off) never carries identity-keyed
    state into another process.
    """
    layout = _LAYOUTS.get(id(module))
    if layout is None:
        layout = ModuleLayout(module)
        _LAYOUTS[id(module)] = layout
        weakref.finalize(module, _LAYOUTS.pop, id(module), None)
    return layout


class MemoryMap:
    """Address assignment plus the flat word store."""

    def __init__(self, module: IRModule):
        self.layout = module_layout(module)
        self.global_addresses = self.layout.global_addresses
        self.global_end = self.layout.global_end
        self.frame_layouts = self.layout.frame_layouts
        self.words: Dict[int, int] = dict(self.layout.initial_words)

    # -- addressing -----------------------------------------------------

    def address_of(
        self, var: Variable, frame_base: Optional[int]
    ) -> int:
        """Address of a variable; locals need the activation's base."""
        slot = self.layout.slot(var)
        if slot >= 0:
            return slot
        if frame_base is None:
            raise KeyError(f"no frame base for local {var}")
        return frame_base + ~slot

    def frame_size(self, function_name: str) -> int:
        return self.frame_layouts[function_name].size

    # -- access ------------------------------------------------------------

    def read(self, address: int) -> int:
        return self.words.get(address, 0)

    def write(self, address: int, value: int) -> None:
        self.words[address] = value

    # -- attack-surface enumeration ------------------------------------------

    def live_stack_slots(
        self, activations: List[Tuple[str, int]]
    ) -> List[Tuple[int, str, str]]:
        """Every addressable word of the live stack.

        ``activations`` is a list of ``(function_name, frame_base)``
        from outermost to innermost.  Returns ``(address, function,
        variable_name)`` triples — the candidate targets of a stack
        buffer overflow.
        """
        slots: List[Tuple[int, str, str]] = []
        for function_name, base in activations:
            layout = self.frame_layouts[function_name]
            for var, offset in layout.offsets.items():
                for word in range(var.size):
                    slots.append((base + offset + word, function_name, var.name))
        return slots

    def global_slots(self) -> List[Tuple[int, str, str]]:
        """Every addressable word of the globals segment."""
        slots: List[Tuple[int, str, str]] = []
        for var, base in self.global_addresses.items():
            for word in range(var.size):
                slots.append((base + word, "<global>", var.name))
        return slots
