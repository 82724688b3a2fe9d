import io
import json
import logging
import math
import re

import numpy as np
import pytest

from qperceptron import network, training
from qperceptron.activation import ActivationKind, eval_f
from qperceptron.network import NetworkSpec, forward, layered_network, network_from_json
from qperceptron.training import (
    Dataset,
    TrainConfig,
    TrainReport,
    batch_state_forward,
    cost_gradient,
    cross_entropy_cost,
    dataset_from_csv,
    dataset_to_csv,
    prime_dataset,
    report_to_json,
    train,
)
from test_network import DenseMixtureEngine

ALG = ActivationKind("algebraic")


def layered_net(n_inputs, hidden, rng=None, scale=1.5):
    """Fully connected layer-to-layer topology ending in one output."""
    sizes = tuple(hidden) + (1,)
    n = n_inputs + sum(sizes)
    mask = np.zeros((n, n))
    J = np.zeros((n, n))
    b = np.zeros(n)
    prev = list(range(n_inputs))
    q = n_inputs
    for width in sizes:
        cur = list(range(q, q + width))
        for t in cur:
            for s in prev:
                mask[t, s] = 1.0
                if rng is not None:
                    J[t, s] = rng.uniform(-scale, scale)
            if rng is not None:
                b[t] = rng.uniform(-scale, scale)
        prev = cur
        q += width
    return NetworkSpec(n_inputs, sizes, mask, J, b, ALG)


def manual_cost(net, dataset):
    total = 0.0
    for x, y in dataset.pairs:
        _, p = forward(net, x)
        p = min(max(p, 1e-12), 1 - 1e-12)
        total -= y * math.log(p) + (1 - y) * math.log(1 - p)
    return total / dataset.size


class TestPrimeDataset:
    def test_three_bit_labels(self):
        ds = prime_dataset(3)
        assert ds.size == 8
        labels = {x: y for x, y in ds.pairs}
        for m in range(8):
            expected = 1.0 if m in (2, 3, 5, 7) else 0.0
            assert labels[format(m, "03b")] == expected

    def test_four_bit_primes(self):
        ds = prime_dataset(4)
        primes = [int(x, 2) for x, y in ds.pairs if y == 1.0]
        assert sorted(primes) == [2, 3, 5, 7, 11, 13]

    def test_two_bit(self):
        ds = prime_dataset(2)
        assert {x for x, y in ds.pairs if y == 1.0} == {"10", "11"}

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            prime_dataset(1)
        with pytest.raises(ValueError):
            prime_dataset(9)


class TestDataset:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(2, (("01", 1.0), ("01", 0.0)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(2, ())

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(3, (("01", 1.0),))

    def test_label_range(self):
        with pytest.raises(ValueError):
            Dataset(2, (("01", 1.5),))

    def test_csv_round_trip(self):
        ds = prime_dataset(3)
        buf = io.StringIO()
        dataset_to_csv(ds, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "x_bits,y"
        back = dataset_from_csv(io.StringIO(text))
        assert back == ds

    @pytest.mark.parametrize("text, line", [
        ("x_bits,y\n00,0\n01,1,1\n", 3),
        ("x_bits,y\n00\n01,1\n", 2),
        ("x_bits,y\n00,0\n\n10,0,\n", 4),
    ], ids=["three_fields", "one_field", "after_blank_line"])
    def test_csv_field_count_names_line(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: expected 2 fields"):
            dataset_from_csv(io.StringIO(text))

    def test_csv_accepts_path_objects(self, tmp_path):
        # pathlib.Path targets, not just str and open handles
        ds = prime_dataset(2)
        target = tmp_path / "primes.csv"
        dataset_to_csv(ds, target)
        assert dataset_from_csv(target) == ds


class TestCost:
    def test_zero_net_gives_log_two(self):
        net = layered_net(3, [4])
        cost = cross_entropy_cost(net, prime_dataset(3))
        assert cost == pytest.approx(math.log(2.0), abs=1e-14)

    def test_perfect_classifier_near_zero(self):
        # output copies the single input with a huge weight
        mask = np.zeros((2, 2))
        mask[1, 0] = 1.0
        J = np.array([[0.0, 0.0], [1000.0, 0.0]])
        net = NetworkSpec(1, (1,), mask, J, np.zeros(2), ALG)
        ds = Dataset(1, (("0", 0.0), ("1", 1.0)))
        assert cross_entropy_cost(net, ds) < 1e-6

    def test_matches_statevector_forward(self):
        rng = np.random.default_rng(11)
        net = layered_net(2, [2], rng)
        ds = prime_dataset(2)
        assert cross_entropy_cost(net, ds) == pytest.approx(
            manual_cost(net, ds), abs=1e-10
        )

    def test_hardware_mode_close_to_ideal(self):
        from qperceptron.control import faquad_schedule

        rng = np.random.default_rng(4)
        net = layered_net(2, [], rng, scale=1.0)
        ds = prime_dataset(2)
        sched = faquad_schedule(tf=10.0, omega0=100.0, omegaf=1.0, x_ref=1.272)
        hard = cross_entropy_cost(net, ds, schedule=sched)
        ideal = cross_entropy_cost(net, ds)
        assert hard == pytest.approx(ideal, abs=0.05)

    def test_width_mismatch(self):
        net = layered_net(3, [2])
        with pytest.raises(ValueError):
            cross_entropy_cost(net, prime_dataset(2))


class TestGradient:
    @pytest.mark.parametrize("hidden,seed", [([2], 7), ([3], 19), ([2, 2], 23)])
    def test_matches_finite_differences(self, hidden, seed):
        rng = np.random.default_rng(seed)
        net = layered_net(2, hidden, rng)
        ds = prime_dataset(2)
        dJ, db = cost_gradient(net, ds)
        h = 1e-5
        n = net.n_total

        def cost_at(J, b):
            return cross_entropy_cost(
                NetworkSpec(2, net.layer_sizes, net.mask, J, b, ALG), ds
            )

        for i in range(n):
            for j in range(n):
                if net.mask[i, j] == 0.0:
                    assert dJ[i, j] == 0.0
                    continue
                Jp = np.array(net.J)
                Jm = np.array(net.J)
                Jp[i, j] += h
                Jm[i, j] -= h
                fd = (cost_at(Jp, net.b) - cost_at(Jm, net.b)) / (2 * h)
                assert abs(dJ[i, j] - fd) / max(abs(fd), 1e-8) < 1e-5
        for i in range(2, n):
            bp = np.array(net.b)
            bm = np.array(net.b)
            bp[i] += h
            bm[i] -= h
            fd = (cost_at(net.J, bp) - cost_at(net.J, bm)) / (2 * h)
            assert abs(db[i] - fd) / max(abs(fd), 1e-8) < 1e-5

    def test_input_rows_zero(self):
        rng = np.random.default_rng(2)
        net = layered_net(3, [2], rng)
        dJ, db = cost_gradient(net, prime_dataset(3))
        assert np.all(dJ[:3] == 0.0)
        assert np.all(db[:3] == 0.0)

    def test_balanced_labels_cancel_output_bias(self):
        # at the flat net p = 1/2 everywhere, so opposite labels cancel
        net = layered_net(2, [])
        ds = Dataset(2, (("01", 1.0), ("10", 0.0)))
        _, db = cost_gradient(net, ds)
        assert db[2] == pytest.approx(0.0, abs=1e-16)

    def test_step_activation_rejected(self):
        n = 3
        mask = np.zeros((n, n))
        mask[2, 0] = mask[2, 1] = 1.0
        net = NetworkSpec(
            2, (1,), mask, np.zeros((n, n)), np.zeros(n), ActivationKind("step")
        )
        with pytest.raises(ValueError, match="step"):
            cost_gradient(net, prime_dataset(2))


class TestTrain:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(max_iters=-1)
        with pytest.raises(ValueError):
            TrainConfig(restarts=-1)

    def test_perfect_start_terminates_immediately(self):
        mask = np.zeros((2, 2))
        mask[1, 0] = 1.0
        J = np.array([[0.0, 0.0], [1000.0, 0.0]])
        net = NetworkSpec(1, (1,), mask, J, np.zeros(2), ALG)
        ds = Dataset(1, (("0", 0.0), ("1", 1.0)))
        report = train(net, ds, TrainConfig(max_iters=500, restarts=3))
        assert len(report.cost_trace) == 1
        assert report.accuracy == 1.0

    def test_trace_nonincreasing(self):
        net = layered_net(2, [2])
        report = train(
            net, prime_dataset(2), TrainConfig(max_iters=60, restarts=0)
        )
        trace = np.array(report.cost_trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_deterministic(self):
        net = layered_net(3, [2])
        cfg = TrainConfig(max_iters=40, restarts=2, seed=9)
        a = train(net, prime_dataset(3), cfg)
        b = train(net, prime_dataset(3), cfg)
        assert a.cost_trace == b.cost_trace
        assert np.array_equal(a.final_params.J, b.final_params.J)
        assert np.array_equal(a.final_params.b, b.final_params.b)
        assert a.accuracy == b.accuracy

    def test_three_bit_primes_learned_exactly(self):
        net = layered_net(3, [4])
        report = train(net, prime_dataset(3), TrainConfig())
        assert report.accuracy == 1.0

    def test_four_bit_primes_learned(self):
        net = layered_net(4, [4])
        report = train(net, prime_dataset(4), TrainConfig())
        assert report.accuracy >= 15.0 / 16.0

    def test_masked_entries_stay_zero(self):
        net = layered_net(2, [2])
        report = train(
            net, prime_dataset(2), TrainConfig(max_iters=30, restarts=1)
        )
        J = report.final_params.J
        assert np.all(J[net.mask == 0.0] == 0.0)

    def test_masked_entries_are_positive_zero(self, monkeypatch):
        # restarts draw J on the masked-in entries only: a masked entry is
        # +0.0, never the -0.0 of the mask times a negative draw
        starts, descend = [], training._descend

        def recording(eng, J, b, config):
            starts.append(J)
            return descend(eng, J, b, config)

        monkeypatch.setattr(training, "_descend", recording)
        net = layered_network(3, (4,))
        report = train(net, prime_dataset(3), TrainConfig(max_iters=50, restarts=4))
        assert len(starts) == 5
        masked = net.mask == 0
        for J in starts + [report.final_params.J]:
            assert not np.any(np.signbit(J[masked]))

    def test_report_json(self):
        net = layered_net(2, [2])
        report = train(
            net, prime_dataset(2), TrainConfig(max_iters=10, restarts=0)
        )
        doc = json.loads(report_to_json(report))
        assert set(doc) == {"cost_trace", "accuracy", "params"}
        assert doc["accuracy"] == report.accuracy
        assert doc["params"]["layer_sizes"] == [2, 1]


class TestBitwiseTraining:
    def test_cli_default_matches_dense_reference(self, monkeypatch):
        # qperceptron train at its defaults: 3-bit primes, 4 hidden, TrainConfig()
        net, ds = layered_network(3, (4,)), prime_dataset(3)
        got = train(net, ds, TrainConfig())
        monkeypatch.setattr(training, "_MixtureEngine", DenseMixtureEngine)
        want = train(net, ds, TrainConfig())
        assert np.array(got.cost_trace).tobytes() == np.array(want.cost_trace).tobytes()
        assert got.final_params.J.tobytes() == want.final_params.J.tobytes()
        assert got.final_params.b.tobytes() == want.final_params.b.tobytes()
        assert report_to_json(got) == report_to_json(want)


class TestWorkGuard:
    """Forwards and hidden-activation sizes of the mixture engine, counted
    by wrapping eval_f, without timing."""

    def test_accepted_first_trial_costs_one_forward(self, monkeypatch):
        sizes = []
        real = network.eval_f

        def counting(kind, x):
            sizes.append(np.size(x))
            return real(kind, x)

        monkeypatch.setattr(network, "eval_f", counting)
        net = layered_net(3, [4], np.random.default_rng(5))
        eng = training._engine(net, prime_dataset(3))
        _, _, trace, _ = training._descend(eng, net.J, net.b, TrainConfig(max_iters=1))
        # the gradient, one accepted trial, the gradient at the trial's point
        assert (len(trace), eng.calls, eng.memo_hits) == (2, 3, 1)
        # two forwards, each: the 4 hidden fields once per sample (S x K =
        # 8 x 4, not S x 2^M x M = 512), then the output on S x 2^M = 128
        assert sizes == [8 * 4, 8 * 16] * 2


class TestTrainLog:
    RECORD = re.compile(
        r"train restart (\d+): (\d+) iterations, (\d+) line-search trials, "
        r"(\d+) memo hits, final cost (\S+), accuracy (\S+), (\S+) s")

    def test_one_debug_record_per_restart(self, caplog):
        net, ds = layered_net(2, [2]), prime_dataset(2)
        cfg = TrainConfig(max_iters=30, restarts=2)
        with caplog.at_level(logging.INFO, logger="qperceptron"):
            train(net, ds, cfg)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="qperceptron"):
            report = train(net, ds, cfg)
        records = [self.RECORD.fullmatch(r.getMessage()) for r in caplog.records]
        assert len(records) == 3 and all(records)
        assert [int(m[1]) for m in records] == [0, 1, 2]
        for m in records:
            iters, trials, hits = int(m[2]), int(m[3]), int(m[4])
            assert hits == iters  # every accepted trial's forward is reused
            assert trials >= iters
            assert float(m[7]) >= 0.0
        best = min(records, key=lambda m: float(m[5]))
        assert float(best[5]) == report.cost_trace[-1]
        assert int(best[2]) == len(report.cost_trace) - 1
        assert float(best[6]) == report.accuracy


class TestBatchStateForward:
    def test_matches_per_input_passes(self):
        rng = np.random.default_rng(31)
        net = layered_net(3, [2], rng)
        ds = prime_dataset(3)
        batch = batch_state_forward(net, ds)
        for (x, _), pb in zip(ds.pairs, batch):
            _, p = forward(net, x)
            assert pb == pytest.approx(p, abs=1e-10)

    def test_subset_of_inputs(self):
        rng = np.random.default_rng(5)
        net = layered_net(2, [2], rng)
        ds = Dataset(2, (("01", 1.0), ("11", 0.0), ("10", 0.0)))
        batch = batch_state_forward(net, ds)
        for (x, _), pb in zip(ds.pairs, batch):
            _, p = forward(net, x)
            assert pb == pytest.approx(p, abs=1e-10)

    def test_input_marginal_stays_uniform(self):
        # gates never rotate input qubits, so the input distribution survives
        from qperceptron.register import QuantumRegister, apply_ideal_perceptron

        rng = np.random.default_rng(13)
        net = layered_net(2, [2], rng)
        ds = prime_dataset(2)
        pad = net.n_total - net.n_inputs
        amps = np.zeros(1 << net.n_total, dtype=complex)
        for x, _ in ds.pairs:
            amps[int(x + "0" * pad, 2)] = 0.5
        reg = QuantumRegister(net.n_total, amps)
        for gate in net.gates():
            reg = apply_ideal_perceptron(reg, gate)
        probs = np.abs(reg.amplitudes) ** 2
        block = 1 << pad
        for i in range(4):
            assert probs[i * block : (i + 1) * block].sum() == pytest.approx(
                0.25, abs=1e-12
            )

    def test_width_mismatch(self):
        net = layered_net(3, [2])
        with pytest.raises(ValueError):
            batch_state_forward(net, prime_dataset(2))


class TestDatasetCsvReader:
    """The dataset reader goes through the shared row reader."""

    def test_bad_label_names_line(self):
        with pytest.raises(ValueError, match="^line 2: could not convert string to float: 'x'"):
            dataset_from_csv(io.StringIO("x_bits,y\n01,x\n"))

    def test_space_inside_header_name_is_rejected(self):
        with pytest.raises(ValueError, match="^expected header 'x_bits,y', got 'x_ bits,y'$"):
            dataset_from_csv(io.StringIO("x_ bits,y\n01,1\n"))

    def test_spaces_around_names_and_fields_are_ignored(self):
        back = dataset_from_csv(io.StringIO(" x_bits , y \n 01 , 1 \n\n10,0\n"))
        assert back.pairs == (("01", 1.0), ("10", 0.0))

    def test_empty_file_says_empty(self):
        with pytest.raises(ValueError, match="^expected header 'x_bits,y', got an empty file$"):
            dataset_from_csv(io.StringIO(""))

    def test_header_only_is_an_empty_dataset(self):
        with pytest.raises(ValueError, match="^empty dataset file$"):
            dataset_from_csv(io.StringIO("x_bits,y\n"))


class TestReportJson:
    def test_report_json_is_not_a_network_document(self):
        # write-only: the network sits under "params", so the document itself
        # is rejected by the network reader with the missing key named
        net = layered_net(2, [2])
        doc = report_to_json(TrainReport((0.5,), net, 1.0))
        with pytest.raises(ValueError, match="no 'n_inputs' key"):
            network_from_json(doc)
