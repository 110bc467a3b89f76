// Plain-text serialization of Datasets: a line-oriented format with
// sections for schema, nodes, links, attributes, and labels. Intended for
// exchanging the synthetic benchmark networks and for round-trip tests.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "hin/dataset.h"

namespace genclus {

/// Streams the line-oriented text model format (core/model_io.h): reads
/// `path`, skips blank lines and '#' comments, tokenizes each record on
/// whitespace, and calls fn(line_no, tokens). A non-OK return
/// from fn aborts the scan and is propagated. Errors that fn reports
/// should use RecordError for uniform "<path>:<line>: <why>" messages.
Status ForEachTextRecord(
    const std::string& path,
    const std::function<Status(size_t line_no,
                               const std::vector<std::string>& tokens)>& fn);

/// An IoError pinpointing a record: "<path>:<line>: <why>".
Status RecordError(const std::string& path, size_t line_no, const char* why);

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
/// A malformed record fails with "<path>:<line>: <why>", and a read error
/// fails rather than ending the file early.
Result<Dataset> LoadDataset(const std::string& path);

}  // namespace genclus
