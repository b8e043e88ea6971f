/**
 * @file
 * The `counterminer` command-line tool, as a testable library entry
 * point: parse arguments, run the requested workflow, and accumulate
 * human-readable output into a string.
 *
 * Commands:
 *   list-benchmarks                      the sixteen simulated programs
 *   list-events [--category <c>]        the 229-event catalog
 *   profile <benchmark> [options]       the full pipeline
 *       --runs N          MLPX runs to pool (default 2)
 *       --seed S          RNG seed (default 42)
 *       --min-events N    EIR stop point (default 96)
 *       --skip-cleaning   ablation: feed raw MLPX data to the ranker
 *       --json FILE       also write the report as JSON
 *       --db FILE         also save the recorded runs
 *   clean <perf.csv> [--out FILE]        clean a perf-stat interval log
 *   explore <db.cmdb>                    summarize a recorded database
 *   error <benchmark> [--seed S]         quick Fig.-1-style error check
 */

#ifndef CMINER_CLI_CLI_H
#define CMINER_CLI_CLI_H

#include <string>
#include <vector>

namespace cminer::cli {

/**
 * Run the CLI.
 *
 * @param args argv[1..] (command plus its arguments)
 * @param output receives everything the command printed
 * @return process exit code (0 on success, 1 on user error: among
 *         them a flag the command does not take, a malformed or
 *         out-of-range number, a missing or extra positional word, and
 *         an allocation the host cannot satisfy)
 */
int run(const std::vector<std::string> &args, std::string &output);

/** The usage/help text. */
std::string usage();

} // namespace cminer::cli

#endif // CMINER_CLI_CLI_H
