"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single ``PASS criterion-N`` line with its runtime
(visible with ``pytest -s``); any assertion failure marks the criterion
red.  The shared corpus lives in a session fixture so the functor-based
criteria reuse the same modules.
"""

import itertools
import json
import time
from fractions import Fraction

from wreathq.cli import main as cli_main
from wreathq.cubes import euler_characteristic, module_cohomology
from wreathq.cyclotomic import Scalar
from wreathq.linalg import Mat
from wreathq.modules import (
    Params, build_induced_zero_e, verify_relations,
)
from wreathq import io as wio
from wreathq.quiver import (
    DimVector, dual_reflection, simple_reflection,
)
from wreathq.reflection import SinkCalculus, is_generic, reflection_functor
from wreathq.symmetric import Perm, YoungDiagram, partitions, rectangle, seminormal_rep

from conftest import (
    AHAT1, AHAT2, BLOCK_MAP_CORPUS, HALF, THIRD, dimension_vector, make_params, rational_weight,
    report_text, simple_at, whole_theta,
)
from reference import (
    build_outer_tensor, central_sum_invertible, involution_witness, module_character,
)


def _quiver_doc(q):
    """The quiver file format of ``q``."""
    return {"vertices": list(q.vertices),
            "edges": [{"name": e.name, "tail": e.tail, "head": e.head} for e in q.edges]}


def _stamp(number, started, note):
    print(f"PASS criterion-{number} ({time.perf_counter() - started:.2f}s): {note}")


def test_criterion_1_functor_soundness(corpus):
    started = time.perf_counter()
    checked = 0
    for name, module in corpus:
        q = module.params.quiver
        for vertex in q.vertices:
            out = reflection_functor(module, vertex)
            expected = dual_reflection(q, vertex, module.params.weight)
            assert out.module.params.weight == expected, (name, vertex)
            report = verify_relations(out.module)
            assert report.passed, (name, vertex, report_text(report))
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _stamp(1, started, f"{checked} reflected modules all verify over the reflected weight")


def test_criterion_2_involution(corpus):
    started = time.perf_counter()
    checked = 0
    for name, module in corpus:
        q = module.params.quiver
        for vertex in q.vertices:
            if not is_generic(module.params, vertex):
                continue
            wit = involution_witness(module, vertex)
            assert wit.verified, (name, vertex)
            assert wit.module.support == module.support, (name, vertex)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    assert checked >= 10
    _stamp(2, started, f"{checked} double reflections verified bijective and intertwining")


def test_criterion_3_genericity_oracle():
    started = time.perf_counter()
    grid = [Fraction(k, 2) for k in range(-4, 5)]
    points = 0
    for lam_i, nu in itertools.product(grid, repeat=2):
        for r in (1, 2, 3, 4):
            closed = all(lam_i + p * nu != 0 and lam_i - p * nu != 0 for p in range(r))
            algebra = all(central_sum_invertible(lam_i, nu, rr) for rr in range(1, r + 1))
            assert closed == algebra, (lam_i, nu, r)
            points += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _stamp(3, started, f"closed form matches k[S_r] invertibility at {points} grid checks")


def test_criterion_4_vanishing_and_euler(corpus):
    started = time.perf_counter()
    checked = 0
    for name, module in corpus:
        if module.params.nu:
            continue
        q = module.params.quiver
        for vertex in q.vertices:
            if not module.params.weight[vertex]:
                continue
            out = reflection_functor(module, vertex)
            coh = module_cohomology(module, vertex)
            for j, dims in coh.items():
                assert dims[0] == out.module.dim(j), (name, vertex, j)
                assert all(d == 0 for d in dims[1:]), (name, vertex, j, dims)
            eul = dict(euler_characteristic(module, vertex).per_tuple)
            for j, value in eul.items():
                assert value == out.module.dim(j), (name, vertex, j)
            checked += 1

    # pure tensor prediction: reflecting an outer tensor matches the outer
    # tensor of the reflected one-particle module, and n = 1 dimension
    # vectors follow the simple reflection
    y1 = simple_at(AHAT1, "1", {"0": 1, "1": 0})
    f0y1 = reflection_functor(y1, "0").module
    assert dimension_vector(f0y1) == \
        simple_reflection(AHAT1, "0", DimVector.unit("1")).as_dict()
    p_outer = make_params(AHAT1, 2, {"0": 1, "1": 0}, 0)
    big = reflection_functor(
        build_outer_tensor(p_outer, [(2, y1, YoungDiagram([2]))]), "0").module
    p_ref = Params(AHAT1, 2, f0y1.params.weight, Scalar.zero())
    predicted = build_outer_tensor(p_ref, [(2, f0y1, YoungDiagram([2]))])
    assert big.support == predicted.support

    elapsed = time.perf_counter() - started
    assert elapsed < 60
    assert checked >= 4
    _stamp(4, started, f"vanishing + Euler formula on {checked} nu=0 reflections; "
                       "outer tensors follow the n=1 prediction")


def _subsets(delta):
    for k in range(len(delta) + 1):
        yield from itertools.combinations(delta, k)


def test_criterion_5_block_map_identities(corpus):
    started = time.perf_counter()
    sub = [item for item in corpus if item[0] in BLOCK_MAP_CORPUS]
    counts = {"exchange": 0, "away": 0, "incoming": 0, "outgoing": 0, "partition": 0}
    from wreathq.reflection import candidate_tuples

    for name, module in sub:
        q = module.params.quiver
        for vertex in q.vertices:
            calc = SinkCalculus(module, vertex)
            nu, lam_i, n = calc.nu, calc.lam_i, calc.n
            for j in candidate_tuples(calc):
                delta = calc.delta(j)
                for d in _subsets(delta):
                    # equivariance of pi and mu under adjacent transpositions
                    for m in range(1, n):
                        g = Perm.adjacent(m, n)
                        j2 = g.act_tuple(j)
                        d2 = tuple(sorted(g(p) for p in d))
                        for p in d:
                            lhs = calc.pi(j2, d2, g(p)) @ calc.sigma_adjacent(j, d, m)
                            rhs = calc.sigma_adjacent(j, tuple(x for x in d if x != p), m) \
                                @ calc.pi(j, d, p)
                            assert lhs == rhs
                            lhs = calc.mu(j2, d2, g(p)) \
                                @ calc.sigma_adjacent(j, tuple(x for x in d if x != p), m)
                            rhs = calc.sigma_adjacent(j, d, m) @ calc.mu(j, d, p)
                            assert lhs == rhs
                            counts["exchange"] += 1
                    for p in d:
                        # pi mu composition: the weight plus the missing transpositions
                        level = tuple(x for x in d if x != p)
                        lhs = calc.pi(j, d, p) @ calc.mu(j, d, p)
                        size = calc.space(j, level).total
                        rhs = Mat.identity(size, calc.order).scaled(lam_i)
                        for m in set(delta) - set(d):
                            rhs = rhs + calc.sigma_perm(
                                j, level, Perm.transposition(p, m, n)).scaled(nu)
                        assert lhs == rhs, (name, vertex, j, d, p)
                        counts["exchange"] += 1
                    for p in d:
                        for qq in d:
                            if p == qq:
                                continue
                            # mixed pi/mu exchange with a transposition correction
                            no_q = tuple(x for x in d if x != qq)
                            no_p = tuple(x for x in d if x != p)
                            no_pq = tuple(x for x in d if x not in (p, qq))
                            lhs = calc.pi(j, d, p) @ calc.mu(j, d, qq)
                            rhs = calc.mu(j, no_p, qq) @ calc.pi(j, no_q, p) \
                                - calc.sigma_perm(j, no_q,
                                                  Perm.transposition(p, qq, n)).scaled(nu)
                            assert lhs == rhs, (name, vertex, j, d, p, qq)
                            # pi pi and mu mu commute
                            assert calc.pi(j, no_q, p) @ calc.pi(j, d, qq) == \
                                calc.pi(j, no_p, qq) @ calc.pi(j, d, p)
                            assert calc.mu(j, d, p) @ calc.mu(j, no_p, qq) == \
                                calc.mu(j, d, qq) @ calc.mu(j, no_q, p)
                            counts["exchange"] += 1

                    # outgoing-edge reindexing maps, including the partition of unity
                    for ell in d:
                        total = None
                        for r_idx, edge in enumerate(calc.R):
                            proj = calc.tau_project(r_idx, ell, j, d)
                            incl = calc.tau_include(r_idx, ell, j, d)
                            term = incl @ proj
                            total = term if total is None else total + term
                            j2 = list(j)
                            j2[ell - 1] = edge.tail
                            j2 = tuple(j2)
                            d_m_ell = tuple(x for x in d if x != ell)
                            for p in d_m_ell:
                                lhs = calc.pi(j2, d_m_ell, p) @ proj
                                rhs = calc.tau_project(r_idx, ell,
                                                       j, tuple(x for x in d if x != p)) \
                                    @ calc.pi(j, d, p)
                                assert lhs == rhs
                                lhs = calc.pi(j, d, p) @ incl
                                rhs = calc.tau_include(
                                    r_idx, ell, j, tuple(x for x in d if x != p)) \
                                    @ calc.pi(j2, d_m_ell, p)
                                assert lhs == rhs
                                counts["outgoing"] += 1
                            for p in set(delta) - set(d):
                                dp = tuple(sorted(d + (p,)))
                                dp_m_ell = tuple(x for x in dp if x != ell)
                                lhs = calc.mu(j2, dp_m_ell, p) @ proj
                                rhs = calc.tau_project(r_idx, ell, j, dp) @ calc.mu(j, dp, p)
                                assert lhs == rhs
                                lhs = calc.mu(j, dp, p) @ incl
                                rhs = calc.tau_include(r_idx, ell, j, dp) \
                                    @ calc.mu(j2, dp_m_ell, p)
                                assert lhs == rhs
                                counts["outgoing"] += 1
                        ident = Mat.identity(calc.space(j, d).total, calc.order)
                        assert total == ident, (name, vertex, j, d, ell)
                        counts["partition"] += 1

                # away-edge and incoming-edge identities need a position outside Delta
                for ell in range(1, n + 1):
                    if ell in delta:
                        continue
                    v = j[ell - 1]
                    for edge in calc.quiver.out_edges(v):
                        if calc.vertex in (edge.tail, edge.head):
                            continue
                        # away edges commute with pi and mu at every level
                        j2 = list(j)
                        j2[ell - 1] = edge.head
                        j2 = tuple(j2)
                        for d in _subsets(delta):
                            for p in d:
                                lhs = calc.pi(j2, d, p) @ calc.away_edge_action(edge.name, ell, j, d)
                                rhs = calc.away_edge_action(edge.name, ell, j,
                                                    tuple(x for x in d if x != p)) \
                                    @ calc.pi(j, d, p)
                                assert lhs == rhs
                                counts["away"] += 1
                            for p in set(delta) - set(d):
                                dp = tuple(sorted(d + (p,)))
                                lhs = calc.mu(j2, dp, p) @ calc.away_edge_action(edge.name, ell, j, d)
                                rhs = calc.away_edge_action(edge.name, ell, j, dp) @ calc.mu(j, dp, p)
                                assert lhs == rhs
                                counts["away"] += 1
                    for r_idx, redge in enumerate(calc.R):
                        if redge.tail != v:
                            continue
                        j2 = list(j)
                        j2[ell - 1] = calc.vertex
                        j2 = tuple(j2)
                        for d in _subsets(delta):
                            d_ell = tuple(sorted(d + (ell,)))
                            th = whole_theta(calc, r_idx, ell, j, d)
                            for p in d:
                                lhs = calc.pi(j2, d_ell, p) @ th
                                rhs = whole_theta(calc, r_idx, ell, j,
                                                  tuple(x for x in d if x != p)) \
                                    @ calc.pi(j, d, p)
                                assert lhs == rhs, (name, vertex, j, d, p, "incoming-pi")
                                lhs = th @ calc.mu(j, d, p)
                                rhs = calc.mu(j2, d_ell, p) \
                                    @ whole_theta(calc, r_idx, ell, j, tuple(x for x in d if x != p))
                                assert lhs == rhs, (name, vertex, j, d, p, "incoming-mu")
                                counts["incoming"] += 1
                        # projection at the new position, full level
                        d_full = tuple(sorted(delta + (ell,)))
                        th = whole_theta(calc, r_idx, ell, j, delta)
                        lhs = calc.pi(j2, d_full, ell) @ th
                        rhs = Mat.zeros(lhs.rows, lhs.cols, calc.order)
                        for m in delta:
                            term = calc.sigma_perm(
                                j2, tuple(x for x in d_full if x != m),
                                Perm.transposition(m, ell, n)) \
                                @ calc.tau_include(r_idx, ell, j2,
                                                   tuple(x for x in d_full if x != m)) \
                                @ calc.pi(j, delta, m)
                            rhs = rhs + term
                        assert lhs == rhs.scaled(nu), (name, vertex, j, ell, "incoming-top")
                        counts["incoming"] += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 60
    assert all(c > 0 for c in counts.values()), counts
    _stamp(5, started, "block-map identities hold: " +
           ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))


def test_criterion_6_corner_rectangles():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        for parts in partitions(n):
            rep = seminormal_rep(YoungDiagram(parts))
            c_mat = Mat.zeros(rep.dim, rep.dim)
            for m in range(2, n + 1):
                c_mat = c_mat + rep.matrix_of(Perm.transposition(1, m, n))
            rect = rectangle(YoungDiagram(parts))
            if rect:
                scalar = rect[1] - rect[0]
                assert c_mat == Mat.identity(rep.dim).scaled(Scalar.rational(scalar)), parts
            else:
                assert not _is_scalar_matrix(c_mat), parts
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _stamp(6, started, f"Jucys-Murphy sum scalar iff rectangle, over {checked} partitions")


def _is_scalar_matrix(m: Mat) -> bool:
    if m.rows != m.cols:
        return False
    if m.rows == 0:
        return True
    diag = m[0, 0]
    for r in range(m.rows):
        for c in range(m.cols):
            expected = diag if r == c else Scalar.zero(m.order)
            if m[r, c] != expected:
                return False
    return True


def _run_cli(tmp_path, tag, *argv):
    code = cli_main(list(argv))
    return code


def test_criterion_7_extension_biconditional(tmp_path):
    started = time.perf_counter()

    def predicted(quiver, blocks, lam, nu):
        rects = [rectangle(d) for d, _ in blocks]
        if None in rects:
            return False
        vertices = [v for _, v in blocks]
        if len(set(vertices)) != len(vertices):
            return False
        for a, u in enumerate(vertices):
            for v in vertices[a + 1:]:
                if quiver.adjacent(u, v):
                    return False
        for (_, vertex), (height, width) in zip(blocks, rects):
            if lam[vertex] != nu * Scalar.rational(height - width):
                return False
        return True

    configs = []
    # A1 single blocks, both outcomes of the trace condition
    for diagram, scalar in ((YoungDiagram([2]), -1), (YoungDiagram([1, 1]), 1)):
        for nu in (HALF, 1):
            for offset in (0, 1, -HALF):
                configs.append((AHAT1, [(diagram, "1")],
                                {"0": 1, "1": scalar * nu + offset}, nu))
    configs.append((AHAT1, [(YoungDiagram([2]), "0")], {"0": -HALF, "1": 2}, HALF))
    # A1, n = 3
    for offset in (0, 1):
        configs.append((AHAT1, [(YoungDiagram([3]), "1")], {"0": 0, "1": -1 + offset}, HALF))
        configs.append((AHAT1, [(YoungDiagram([1, 1, 1]), "1")], {"0": 0, "1": 1 + offset}, HALF))
    # violating only the rectangle condition
    configs.append((AHAT1, [(YoungDiagram([2, 1]), "1")], {"0": 0, "1": 0}, HALF))
    # violating only the adjacency condition (rectangles and traces hold)
    configs.append((AHAT1, [(YoungDiagram([1]), "0"), (YoungDiagram([1]), "1")],
                    {"0": 0, "1": 0}, HALF))
    # A2 variants
    for offset in (0, THIRD):
        configs.append((AHAT2, [(YoungDiagram([2]), "0")],
                        {"0": -THIRD + offset, "1": 1, "2": 1}, THIRD))
        configs.append((AHAT2, [(YoungDiagram([1, 1]), "2")],
                        {"0": 1, "1": 1, "2": THIRD + offset}, THIRD))
    configs.append((AHAT2, [(YoungDiagram([3]), "2")], {"0": 0, "1": 0, "2": -2 * THIRD}, THIRD))
    configs.append((AHAT2, [(YoungDiagram([2]), "0"), (YoungDiagram([1]), "1")],
                    {"0": -THIRD, "1": -THIRD, "2": 0}, THIRD))
    configs.append((AHAT2, [(YoungDiagram([2, 1]), "1")], {"0": 0, "1": 0, "2": 0}, THIRD))

    assert len(configs) >= 20
    outcomes = set()
    for idx, (quiver, blocks, lam, nu) in enumerate(configs):
        n = sum(d.size for d, _ in blocks)
        params = make_params(quiver, n, lam, nu)
        qp = tmp_path / f"q{idx}.json"
        qp.write_text(wio.to_canonical_json(_quiver_doc(quiver)))
        pp = tmp_path / f"p{idx}.json"
        pp.write_text(wio.to_canonical_json(wio.dump_params(params)))
        mp = tmp_path / f"m{idx}.json"
        blocks_json = json.dumps([{"diagram": list(d.parts), "vertex": v}
                                  for d, v in blocks])
        code = cli_main(["induce", "--quiver", str(qp), "--params", str(pp),
                         "--blocks", blocks_json, "--out", str(mp)])
        assert code == 0, f"induce failed for config {idx}"
        verify_code = cli_main(["verify", "--quiver", str(qp), "--module", str(mp)])
        expect = predicted(quiver, blocks, params.weight, params.nu)
        assert (verify_code == 0) == expect, (idx, blocks, lam, nu)
        outcomes.add(expect)
    assert outcomes == {True, False}
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _stamp(7, started, f"extension criterion matches verify on {len(configs)} configurations")


def test_criterion_8_flat_family_sampling(tmp_path):
    started = time.perf_counter()
    samples = [Fraction(0), HALF, THIRD, Fraction(-1, 2), Fraction(2, 5), Fraction(-1, 4)]

    # stated data: lambda_0 = (1, 0), Y = S_1, n = 2, X = triv; the minimal
    # word is empty, so the transported module is the induced one itself
    qp = tmp_path / "q.json"
    qp.write_text(wio.to_canonical_json(_quiver_doc(AHAT1)))
    reference = None
    for idx, nu in enumerate(samples):
        params = make_params(AHAT1, 2, {"0": 1, "1": -nu}, nu)
        module = build_induced_zero_e(params, [(YoungDiagram([2]), "1")])
        assert verify_relations(module).passed, nu
        mp = tmp_path / f"flat{idx}.json"
        mp.write_text(wio.to_canonical_json(wio.dump_module(module)))
        out = tmp_path / f"flat{idx}.out.json"
        code = cli_main(["reflect", "--quiver", str(qp), "--module", str(mp),
                         "--word", "", "--out", str(out)])
        assert code == 0
        moved = wio.parse_module(json.loads(out.read_text()), AHAT1)
        chars = {parts: module_character(moved, Perm.from_cycle_type(parts, 2))
                 for parts in partitions(2)}
        signature = (tuple(sorted(moved.support.items())), tuple(sorted(chars.items())))
        if reference is None:
            reference = signature
        assert signature == reference, nu

    # transported variant: lambda_0 = (-1, 2), Y = F_0(S_1), word [0]; the
    # induced module lives at the reflected weight and comes back via F_0
    y = reflection_functor(simple_at(AHAT1, "1", {"0": 1, "1": 0}), "0").module
    reference = None
    for idx, nu in enumerate(samples):
        lam = {"0": -1, "1": 2 - nu}        # lambda . alpha = -nu for alpha = (2,1)
        params = make_params(AHAT1, 2, lam, nu)
        moved_weight = dual_reflection(AHAT1, "0", params.weight)
        ind_params = Params(AHAT1, 2, moved_weight, params.nu)
        module = build_induced_zero_e(ind_params, [(YoungDiagram([2]), "1")])
        assert verify_relations(module).passed, nu
        # U' genericity along the word for this sample
        assert moved_weight["1"] == Scalar.rational(-nu)
        assert is_generic(ind_params, "0") or nu == 0
        mp = tmp_path / f"word{idx}.json"
        mp.write_text(wio.to_canonical_json(wio.dump_module(module)))
        out = tmp_path / f"word{idx}.out.json"
        code = cli_main(["reflect", "--quiver", str(qp), "--module", str(mp),
                         "--word", "0", "--out", str(out)])
        assert code == 0
        moved = wio.parse_module(json.loads(out.read_text()), AHAT1)
        assert verify_relations(moved).passed, nu
        assert moved.params.weight == params.weight
        chars = {parts: module_character(moved, Perm.from_cycle_type(parts, 2))
                 for parts in partitions(2)}
        signature = (tuple(sorted(moved.support.items())), tuple(sorted(chars.items())))
        if reference is None:
            reference = signature
        assert signature == reference, nu

    # at nu = 0 the family specialises to the outer tensor X (x) Y up
    p0 = Params(AHAT1, 2, rational_weight({"0": -1, "1": 2}), Scalar.zero())
    baseline = build_outer_tensor(p0, [(2, y, YoungDiagram([2]))])
    assert dict(reference[0]) == baseline.support
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    _stamp(8, started, f"{len(samples)} parameter samples share dimensions and characters")


def test_criterion_9_parameter_dictionary():
    started = time.perf_counter()
    from wreathq.sra import GammaData, SRAParams, recover_sra, translate_params

    gamma = GammaData.cyclic(2)
    t, k, c1 = Scalar.rational(Fraction(2, 3), 2), Scalar.rational(HALF, 2), Scalar.rational(-2, 2)
    lam, nu = translate_params(gamma, SRAParams(t, k, {"g1": c1}))
    assert lam[ "0"] == t + c1 and lam["1"] == t - c1
    assert nu == k

    for m in range(2, 7):
        gamma = GammaData.cyclic(m)
        t = Scalar.rational(Fraction(5, 3), m)
        k = Scalar.rational(Fraction(-2, 7), m)
        c = {f"g{s}": Scalar.rational(Fraction(2 * s - 1, 3), m) for s in range(1, m)}
        lam, nu = translate_params(gamma, SRAParams(t, k, c))
        back = recover_sra(gamma, lam, nu)
        assert back.t == t and back.k == k
        assert all(back.c.get(e, Scalar.zero(m)) == c[e] for e in c)
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    _stamp(9, started, "Z/2 dictionary exact; Fourier round trip for m <= 6")


def test_criterion_10_cube_algebra():
    started = time.perf_counter()
    import random
    from wreathq.cubes import cohomology, complex_from_cube
    from test_cubes import _idempotent_cube, cone_faces  # shared construction

    checked = 0
    for seed in range(6):
        rng = random.Random(seed)
        m = rng.choice([1, 2, 3])
        dim = rng.choice([2, 3, 4])
        cube = _idempotent_cube(rng, m, dim)
        cx = complex_from_cube(cube)   # d^2 = 0 is asserted on construction
        dims = cohomology(cx)
        assert all(d == 0 for d in dims[1:]), (seed, dims)
        for q in cube.delta:
            z0, z1, connecting = cone_faces(cube, q)
            cx0, cx1 = complex_from_cube(z0), complex_from_cube(z1)
            for r in range(len(cx.terms)):
                d1 = cx1.terms[r - 1].total if 0 <= r - 1 < len(cx1.terms) else 0
                d0 = cx0.terms[r].total if r < len(cx0.terms) else 0
                assert cx.terms[r].total == d1 + d0
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    _stamp(10, started, f"{checked} idempotent cubes: d^2 = 0, no higher cohomology, "
                        "cone terms exact")
