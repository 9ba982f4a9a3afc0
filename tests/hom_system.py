"""dim Hom_G(A, M) as the nullity of one stacked linear system: the
reference for meataxe.hom_dim.

The unknown is the whole dim M x dim A matrix X, and X a_j = rho_j X gives
one equation per entry of X and generator j, assembled entry by entry with
descriptor calls and ranked by matrices.rank.  It needs no spin, no seeds
and no packing, only the definition, so it is independent of the seeded
spin that hom_dim runs; tests/test_hom.py compares the two.  Its
(dim M * dim A)-unknown system is what makes it slow: B3's relation module
on its 9-dimensional adjoint gives 873 unknowns.
"""

from irredcert.matrices import Matrix, rank


def stacked_hom_dim(K, src_gens, dst_gens):
    """dim Hom_G(A, M) for the matrices a_j (src_gens) and rho_j (dst_gens)
    of the same generators: the nullity of the system X a_j = rho_j X."""
    s = src_gens[0].nrows
    m = dst_gens[0].nrows
    zero = K.zero()
    rows = []
    # row-major vec: vec(rho X) = (rho (x) I) vec X, vec(X a) = (I (x) a^T)
    # vec X.  The equations of entry (i, t) of X sit together, one per
    # generator
    for i in range(m):
        for t in range(s):
            for a, rho in zip(src_gens, dst_gens):
                row = [zero] * (m * s)
                for i2 in range(m):
                    row[i2 * s + t] = rho.entry(i, i2)
                for t2 in range(s):
                    c = i * s + t2
                    row[c] = K.sub(row[c], a.entry(t2, t))
                rows.append(row)
    return m * s - rank(Matrix._raw(K, len(rows), m * s,
                                    [x for row in rows for x in row]))
