"""Buffers that live for a run.

A training step's temporaries (the draw and its scratch, the rhs planes, the
perturbed weights, the batch products, the activation, adjoint and tangent
planes of each sweep's stack of signs, the update's blocks) are written into
buffers that a
:class:`Workspace` keeps, so a run's steps allocate and free none of them.
Freed every step, they made glibc trim the heap top and fault its pages back
in at the next step.  Every function that takes a workspace takes ``None``
too, and then allocates as it goes: the ``out=`` of an operation is
``work and work.take(...)``, None without a workspace, so that numpy
allocates the result as it would with no ``out`` (and no call is made), and
:func:`buffer` gives an array either way.

A buffer is named for what it holds.  Two kinds of name share the memory:

* a step's arrays, read until the step ends, each under a name of its own
  (a sweep's arrays under names of its stack of signs);
* scratch, under an integer name: what dies within the call that takes it,
  in buffers of the thread that runs the call.  The phases of a step that run
  one after another on one thread (the draw, the rhs, the pair's weights,
  the sweep, the update) take the same scratch buffers in turn; the +eps
  pass, when it runs on the worker thread (:mod:`sdze.worker`) beside the
  -eps pass, takes the worker's.  A call that takes scratch buffer i calls
  nothing that takes buffer i while it still reads it.

So a training step at poisson100's shapes keeps about 4 MB, most of it two
pairs of 0.8 MB tangent blocks: one pair per thread on two threads, or one
pair of 1.6 MB blocks, both signs stacked, on one.  The two threads take
their names from one dict, each only its own: a take is one lookup and at
most one insert, and names never collide.
"""

from __future__ import annotations

import math
import threading

import numpy as np


class Workspace:
    """Buffers that live for a run, so that its steps allocate no temporary.

    :meth:`take` hands out the buffer kept under a name, replaced by a larger
    one when a shape needs it.  Its contents are what the last taker left,
    and the next take of the name rewrites them.  So a workspace serves one
    owner that holds one step's arrays at a time: ``train``, whose steps each
    build one :class:`sdze.net.SignPair` and draw one sample, and drop both
    before the next step (:func:`sdze.optimizer.sdze_step`).  A caller that
    holds several pairs at once, such as a variance sweep, passes none.
    """

    def __init__(self):
        self._kept: dict = {}

    def take(self, name, shape: tuple[int, ...], dtype) -> np.ndarray:
        """The buffer kept under ``name``, as an array of ``shape`` and ``dtype``.

        A name may be taken in any dtype: the buffer is raw bytes.  An integer
        name ``i`` is the calling thread's scratch buffer ``i``.
        """
        if type(name) is int:
            name = (threading.get_ident(), name)
        kept = self._kept.get(name)
        if kept is not None:
            try:
                return np.ndarray(shape, dtype, kept)
            except TypeError:  # the buffer is too small for the shape
                pass
        kept = self._kept[name] = np.empty(math.prod(shape) * np.dtype(dtype).itemsize, np.uint8)
        return np.ndarray(shape, dtype, kept)


def buffer(work: Workspace | None, name, shape: tuple[int, ...], dtype) -> np.ndarray:
    """``work``'s buffer ``name`` (:meth:`Workspace.take`), or a new array without a workspace."""
    return np.empty(shape, dtype) if work is None else work.take(name, shape, dtype)

