// Database persistence: saves/loads every table to a directory as a
// manifest plus one tab-separated file per table. Used by the rfidsql
// shell's .save/.load commands and as the checkpoint image format of the
// durability subsystem (src/wal).
//
// Format, version 1:
//   <dir>/MANIFEST        "rfiddb 1" then one table name per line
//   <dir>/<table>.tsv     line 1: col:TYPE\t...; then one row per line.
// Values are tab-separated; NULL is "\N"; strings are escaped (\t, \n,
// \\, and \N). Timestamps/intervals are raw microsecond integers;
// doubles use %.17g so the round trip is bit-exact.
//
// Crash safety: every file is written to a ".tmp" sibling, fsync()ed,
// and atomically renamed into place, with the manifest renamed last — a
// crash mid-Save never clobbers a previous dump, and readers only ever
// see a directory whose manifest matches complete table files. Partial
// writes and fsync failures surface as structured Status (never silent
// truncation).
#ifndef RFID_STORAGE_PERSIST_H_
#define RFID_STORAGE_PERSIST_H_

#include <string>

#include "storage/catalog.h"

namespace rfid {

/// Writes every table of the database into `dir` (created if needed).
/// Atomic per file: on any error the previous contents of `dir` remain
/// loadable (at worst stray ".tmp" files are left behind).
Status SaveDatabase(const Database& db, const std::string& dir);

/// Loads all tables from `dir` into `db` (tables must not already exist
/// unless `skip_existing`, in which case clashing tables are left
/// untouched). Indexes and statistics are NOT rebuilt; call the
/// appropriate Build/ComputeStats afterwards (or
/// rfidgen::FinalizeDatabase for RFID data).
Status LoadDatabase(const std::string& dir, Database* db,
                    bool skip_existing = false);

/// One row as a persistence-format TSV line (no trailing newline). The
/// WAL logs rows in exactly this encoding, so log replay and dump
/// loading share one codec.
std::string SerializeRowTsv(const Row& row);

/// Parses a persistence-format TSV line against `schema` (arity and
/// types checked).
Result<Row> ParseRowTsv(const std::string& line, const Schema& schema);

}  // namespace rfid

#endif  // RFID_STORAGE_PERSIST_H_
