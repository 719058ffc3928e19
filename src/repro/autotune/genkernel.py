"""The staged L1 matrix-multiply micro-kernel — paper Figure 5.

A line-by-line transliteration of the paper's ``genkernel(NB, RM, RN, V,
alpha)``: it generates a Terra function computing a multiply over
NB×NB blocks that fit in L1 cache,

    ``C = alpha*C + A*B``

with *register blocking* (an RM × RN·V block of C held in vector
registers — the ``symmat`` symbol matrices), *vectorization* (Terra
``vector(double,V)`` types), and *prefetching* (the ``prefetch``
intrinsic), exactly the three staged optimizations §6.1 describes.

The kernel is parameterized over the element type as well (``double`` for
DGEMM, ``float`` for SGEMM — Figure 6 shows both).
"""

from __future__ import annotations

from .. import (constant, double, int64, pointer, prefetch, quote_, symbol,
                symmat, terra, vector)
from ..core import types as T


def genkernel(NB: int, RM: int, RN: int, V: int, alpha: float,
              elem: T.Type = double, use_prefetch: bool = True):
    """Generate the L1-sized kernel (paper Fig. 5).

    Requires positive sizes, ``NB % RM == 0`` and ``NB % (RN*V) == 0``
    (a ``ValueError`` names the violated constraint: the kernel walks
    whole register blocks, so any other tuple reads and writes past its
    NB×NB block).  Returns a Terra function
    ``(A, B, C : &elem, lda, ldb, ldc : int64) -> {}``.
    """
    sizes = dict(NB=NB, RM=RM, RN=RN, V=V)
    for name, value in sizes.items():
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"genkernel: {name} must be a positive int, "
                             f"got {value!r}")
    if NB % RM:
        raise ValueError(f"genkernel: NB % RM == 0 violated — {RM} "
                         f"register rows do not divide the {NB}-row block")
    if NB % (RN * V):
        raise ValueError(f"genkernel: NB % (RN*V) == 0 violated — "
                         f"RN*V = {RN * V} columns do not divide the "
                         f"{NB}-column block")
    vector_type = vector(elem, V)
    vector_pointer = pointer(vector_type)
    eptr = pointer(elem)
    A, B, C = symbol(eptr, "A"), symbol(eptr, "B"), symbol(eptr, "C")
    mm, nn = symbol(int64, "mm"), symbol(int64, "nn")
    lda = symbol(int64, "lda")
    ldb = symbol(int64, "ldb")
    ldc = symbol(int64, "ldc")
    a, b = symmat("a", RM), symmat("b", RN)
    c, caddr = symmat("c", RM, RN), symmat("caddr", RM, RN)
    k = symbol(int64, "k")

    alpha_const = constant(elem, float(alpha))
    zero = constant(elem, 0.0)
    loadc, storec = [], []
    for m in range(RM):
        for n in range(RN):
            if alpha == 0.0:
                # C's previous contents may be uninitialized (0*NaN = NaN),
                # so the alpha=0 kernel skips the load entirely
                loadc.append(quote_("""
                    var [caddr[m][n]] = [C] + [m]*[ldc] + [n*V]
                    var [c[m][n]] = [vector_type]([zero])
                """))
            else:
                loadc.append(quote_("""
                    var [caddr[m][n]] = [C] + [m]*[ldc] + [n*V]
                    var [c[m][n]] = [alpha_const] * @[vector_pointer]([caddr[m][n]])
                """))
            storec.append(quote_("""
                @[vector_pointer]([caddr[m][n]]) = [c[m][n]]
            """))

    calcc = []
    for n in range(RN):
        calcc.append(quote_("""
            var [b[n]] = @[vector_pointer](&[B][[n*V]])
        """))
    for m in range(RM):
        calcc.append(quote_("""
            var [a[m]] = [vector_type]([A][[m]*[lda]])
        """))
    for m in range(RM):
        for n in range(RN):
            calcc.append(quote_("""
                [c[m][n]] = [c[m][n]] + [a[m]] * [b[n]]
            """))

    pf = []
    if use_prefetch:
        pf.append(quote_("[prefetch]([B] + 4*[ldb], 0, 3, 1)"))

    return terra("""
    terra([A] : &elem, [B] : &elem, [C] : &elem,
          [lda] : int64, [ldb] : int64, [ldc] : int64) : {}
      for [mm] = 0, NB, RM do
        for [nn] = 0, NB, [RN*V] do
          [loadc]
          for [k] = 0, NB do
            [pf]
            [calcc]
            [B], [A] = [B] + [ldb], [A] + 1
          end
          [storec]
          [A], [B], [C] = [A] - NB, [B] - [ldb]*NB + [RN*V], [C] + [RN*V]
        end
        [A], [B], [C] = [A] + [lda]*RM, [B] - NB, [C] + RM*[ldc] - NB
      end
    end
    """, env=dict(A=A, B=B, C=C, lda=lda, ldb=ldb, ldc=ldc, mm=mm, nn=nn,
                  k=k, a=a, b=b, c=c, caddr=caddr, NB=NB, RM=RM, RN=RN, V=V,
                  loadc=loadc, storec=storec, calcc=calcc, pf=pf,
                  vector_type=vector_type, vector_pointer=vector_pointer,
                  prefetch=prefetch, elem=elem, alpha_const=alpha_const))
