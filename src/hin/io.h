// Plain-text serialization of Datasets: a line-oriented format with
// sections for schema, nodes, links, attributes, and labels. Intended for
// exchanging the synthetic benchmark networks and for round-trip tests.
#pragma once

#include <string>

#include "common/status.h"
#include "hin/dataset.h"

namespace genclus {

/// Writes `dataset` to `path`. The format is self-describing; see
/// LoadDataset for the grammar.
Status SaveDataset(const Dataset& dataset, const std::string& path);

/// Reads a dataset written by SaveDataset, streaming the file.
///
/// Grammar (one record per line):
///   object_type <name>
///   link_type <name> <source_type> <target_type>
///   inverse <link_type_a> <link_type_b>
///   node <object_type> [name]
///   link <src_id> <dst_id> <link_type> <weight>
///   attribute categorical <name> <vocab_size>
///   attribute numerical <name>
///   obs_term <attr_name> <node_id> <term> <count>
///   obs_value <attr_name> <node_id> <value>
///   label <node_id> <cluster>
///
/// Lines end at '\n'. Fields are separated by runs of ' ', '\t', '\v',
/// '\f' and '\r' (so CRLF files load), whatever the process locale. Blank
/// lines and lines whose first field starts with '#' are skipped. Ids,
/// terms, clusters and vocabulary sizes are unsigned decimal integers.
/// Weights, counts and values are decimal floating-point numbers;
/// subnormals load, and a leading '+' and hex floats are still accepted.
/// A malformed record, or an observation its attribute refuses, fails
/// with "<path>:<line>: <why>", and a read error fails rather than
/// ending the file early.
Result<Dataset> LoadDataset(const std::string& path);

}  // namespace genclus
