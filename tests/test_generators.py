"""Tests for the synthetic dataset generators (Table II analogues)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.data.generators import (
    DATASET_SPECS,
    SyntheticCorpusGenerator,
    generate_dataset,
    list_datasets,
)


class TestSpecs:
    def test_all_five_datasets_present(self):
        assert list_datasets() == ["A", "B", "C", "D", "E"]

    def test_paper_metadata_matches_table2(self):
        assert DATASET_SPECS["A"].paper_files == 134_631
        assert DATASET_SPECS["B"].paper_rules == 2_095_573
        assert DATASET_SPECS["C"].paper_size == "50GB"
        assert DATASET_SPECS["D"].paper_vocabulary == 240_552
        assert DATASET_SPECS["E"].paper_rules == 8_821_630

    def test_only_dataset_c_uses_cluster_baseline(self):
        assert [key for key, spec in DATASET_SPECS.items() if spec.cluster_baseline] == ["C"]

    def test_file_count_signatures(self):
        assert DATASET_SPECS["A"].num_files > 100
        assert DATASET_SPECS["B"].num_files == 4
        assert DATASET_SPECS["D"].num_files == 1
        assert DATASET_SPECS["E"].num_files == 1

    def test_scaled_reduces_many_file_dataset_by_count(self):
        scaled = DATASET_SPECS["A"].scaled(0.1)
        assert scaled.num_files < DATASET_SPECS["A"].num_files
        assert scaled.tokens_per_file == DATASET_SPECS["A"].tokens_per_file

    def test_scaled_reduces_few_file_dataset_by_length(self):
        scaled = DATASET_SPECS["B"].scaled(0.1)
        assert scaled.num_files == 4
        assert scaled.tokens_per_file < DATASET_SPECS["B"].tokens_per_file

    def test_scaled_identity(self):
        assert DATASET_SPECS["C"].scaled(1.0) is DATASET_SPECS["C"]


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        first = generate_dataset("D", scale=0.1, seed=11)
        second = generate_dataset("D", scale=0.1, seed=11)
        assert first == second

    def test_different_seeds_differ(self):
        first = generate_dataset("D", scale=0.1, seed=11)
        second = generate_dataset("D", scale=0.1, seed=12)
        assert first != second

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            generate_dataset("Z")

    def test_file_counts_respect_spec(self):
        corpus = generate_dataset("B", scale=0.05)
        assert len(corpus) == 4
        corpus_single = generate_dataset("E", scale=0.02)
        assert len(corpus_single) == 1

    def test_scale_controls_token_volume(self):
        small = generate_dataset("D", scale=0.05)
        large = generate_dataset("D", scale=0.2)
        assert large.num_tokens > small.num_tokens

    def test_redundancy_produces_repeated_phrases(self):
        corpus = generate_dataset("E", scale=0.05)
        vocabulary = corpus.vocabulary
        # Heavy reuse means far fewer distinct words than tokens.
        assert len(vocabulary) < corpus.num_tokens / 3

    def test_spec_override(self):
        spec = DATASET_SPECS["D"].scaled(0.05)
        corpus = generate_dataset("D", spec_override=spec)
        assert len(corpus) == spec.num_files

    def test_generator_document_names_are_unique(self):
        corpus = generate_dataset("A", scale=0.05)
        names = corpus.file_names
        assert len(names) == len(set(names))

    def test_generator_respects_minimum_sizes(self):
        generator = SyntheticCorpusGenerator(DATASET_SPECS["D"].scaled(0.01))
        corpus = generator.generate()
        assert all(doc.num_tokens >= 16 for doc in corpus)


class TestCrossProcessDeterminism:
    FINGERPRINTS = "5d2187e702d2 ce05c3616ce7 0e596c73a719 71bc825862b5 71a1c6f0e153"
    SCRIPT = (
        "from repro.compression.compressor import compress_corpus\n"
        "from repro.data.generators import generate_dataset\n"
        "print(' '.join(compress_corpus(generate_dataset(key, scale=0.05, seed=2021))"
        ".fingerprint()[:12] for key in 'ABCDE'))\n"
    )

    def test_fingerprints_do_not_depend_on_the_hash_seed(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            ).stdout.strip()
            for hash_seed in ("0", "7")
        ]
        assert outputs == [self.FINGERPRINTS, self.FINGERPRINTS]
