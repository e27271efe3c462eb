/**
 * @file
 * Reference Clifford extractor — the seed CliffordExtractor::run, kept
 * verbatim together with the pieces it was built from.
 *
 * referenceCliffordExtract keeps every pending term of a commuting block
 * as its own PauliString row and replays each committed gate onto each
 * row (applyGateToPauli), and its find_next_pauli runs the full
 * non-recursive cost model on every remaining candidate of the block.
 * Its tree synthesizer is the seed TreeSynthesizer, whose exhaustive
 * search copies the lookahead strings and the qubit set on every DFS
 * branch. referenceCommutingBlocks is the seed pairwise block
 * partition: each term is checked against every member of the open
 * block. The production extractor (core/clifford_extractor.hpp) keeps
 * the pending rows bit-sliced, prunes candidates with a lower bound and
 * searches in place, and must compile every program identically; these
 * functions are the oracle for that differential test (test_extraction,
 * test_pauli_list) and the baseline bench_micro measures against. Do
 * not use them on hot paths.
 */
#ifndef QUCLEAR_TESTS_REFERENCE_EXTRACTOR_HPP
#define QUCLEAR_TESTS_REFERENCE_EXTRACTOR_HPP

#include <cstddef>
#include <vector>

#include "core/clifford_extractor.hpp"
#include "pauli/pauli_term.hpp"

namespace quclear {

/** The seed commutingBlocks: pairwise check against the open block. */
std::vector<std::vector<size_t>>
referenceCommutingBlocks(const std::vector<PauliTerm> &terms);

/** The seed CliffordExtractor(config).run(terms). */
ExtractionResult referenceCliffordExtract(const std::vector<PauliTerm> &terms,
                                          const ExtractionConfig &config = {});

} // namespace quclear

#endif // QUCLEAR_TESTS_REFERENCE_EXTRACTOR_HPP
