"""The join and meet case lists of rule 2.4, transcribed whole, as a
reference for the tests.  ``cross_check_ops`` checks only the one stated
rule that the discrepancy registry corrects (item 3, note
``2.4-item3-scope``); comparing this full transcription with the oracle
shows that the rest of the stated join and the whole stated meet agree
with it."""

from lingtruth.lattice import AlgebraConfig


def stated_rows(config: AlgebraConfig) -> tuple[list[list[int]], list[list[int]]]:
    """The join and meet tables exactly as the case lists state them, as
    position rows over ``config.values()``.  Same-polarity pairs take the
    larger and the smaller value of their chain.  For a mixed-polarity pair
    of the quasi kind the stated join uses the raised value v_(n-(i-1))T
    for every true grade k = n-i, regardless of the false grade; the stated
    meet scopes its special branches correctly, so it coincides with the
    implemented meet."""
    n, nc = config.n, config.noncomparable
    quasi = nc is not None
    f_grades, t_grades = range(n, -1, -1), range(n + 1)  # carrier order, v_nF first

    def false(grade):  # position of v_gradeF
        return n - grade

    def true(grade):  # position of v_gradeT
        return n + 1 + grade

    # v_kT with v_lF: rows k, columns l in carrier order
    mixed_join = [[true(n - (nc - 1) if quasi and k == n - nc else k) if n <= k + l
                   else true(n - (nc - 1) if quasi and l == nc else n - l)
                   for l in f_grades] for k in t_grades]
    mixed_meet = [[false(nc + 1 if quasi and k == n - nc and l == nc else l) if n <= k + l
                   else false(nc + 1 if quasi and k == n - nc else n - k)
                   for l in f_grades] for k in t_grades]
    # same polarity: the larger and the smaller position of one chain, a
    # plateau and a range; false row r is v_(n-r)F, true row k is v_kT
    s, positions = n + 1, [*range(2 * n + 2)]
    joins = [[r] * (r + 1) + positions[r + 1:s] + list(mixed)
             for r, mixed in enumerate(zip(*mixed_join))]
    joins += [mixed + [s + k] * (k + 1) + positions[s + k + 1:]
              for k, mixed in enumerate(mixed_join)]
    meets = [positions[:r] + [r] * (s - r) + list(mixed)
             for r, mixed in enumerate(zip(*mixed_meet))]
    meets += [mixed + positions[s:s + k] + [s + k] * (s - k)
              for k, mixed in enumerate(mixed_meet)]
    return joins, meets
