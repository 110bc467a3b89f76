// Shared helpers for the paper-reproduction bench binaries: per-type NMI
// masking, method runners, and aligned table printing. Every bench prints
// a "paper" column next to the measured one where the paper reports a
// number, so EXPERIMENTS.md can be regenerated from bench output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/topic_models.h"
#include "eval/nmi.h"
#include "hin/dataset.h"
#include "linalg/matrix.h"

namespace genclus::bench {

/// Hard labels from a soft membership matrix.
std::vector<uint32_t> HardLabels(const Matrix& theta);

/// NMI restricted to one node subset: other positions are masked to
/// kUnlabeled on both sides.
double SubsetNmi(const std::vector<uint32_t>& pred, const Labels& truth,
                 const std::vector<NodeId>& subset);

/// NMI over every labeled node.
double OverallNmi(const std::vector<uint32_t>& pred, const Labels& truth);

/// Mean and standard deviation of a sample.
struct MeanStd {
  double mean = 0.0;
  double std = 0.0;
};
MeanStd Summarize(const std::vector<double>& values);

/// Prints a horizontal rule and a centered title.
void PrintHeader(const std::string& title);

/// Prints one row of right-aligned cells (first cell left-aligned, width
/// 24; remaining width 12).
void PrintRow(const std::vector<std::string>& cells);

/// Formats a double with 4 decimals ("-" for NaN).
std::string Fmt(double value);

/// Formats "mean +- std".
std::string FmtMeanStd(const MeanStd& ms);

}  // namespace genclus::bench
