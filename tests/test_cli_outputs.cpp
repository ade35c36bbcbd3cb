/**
 * @file
 * sipre_cli's output, pinned per invocation. Every cell of a fixed
 * matrix runs the built CLI and records its exit code, its stdout
 * (report cells line by line, --json cells as a 64-bit digest) and its
 * stderr; tests/data/cli_outputs.txt holds what they printed. A second
 * test holds every --json cell to the service's executor: its stdout is
 * simResultToJson of the same request's runSimRequest, which is what
 * makes a sweep shard's result byte-identical to `sipre_cli --json`.
 */
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/json_io.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"

namespace sipre
{
namespace
{

/** One sipre_cli invocation of the matrix. */
struct Cell
{
    std::string args;
    /// For a --json cell without --profile-in: the /simulate body of
    /// the same request, and the scenario window it runs with.
    std::string body;
    std::uint32_t scenario_window = 0;
};

/**
 * The matrix, in run order: each mode solo and co-run, as a report and
 * as JSON; a saved trace run back; the two-pass profile->instrument
 * flow; a scenario timeline; a hardware prefetcher under AsmDB; and
 * unknown workloads. Later cells read the files earlier ones write.
 */
std::vector<Cell>
matrix()
{
    const std::string n = " --instructions 20000";
    const char *modes[] = {"base", "asmdb", "noovh", "metadata",
                           "feedback"};
    const struct
    {
        const char *args;
        const char *body;
    } machines[] = {
        {"--workload secret_srv12", R"("workload":"secret_srv12")"},
        {"--mix secret_srv12,secret_int_124",
         R"("mix":["secret_srv12","secret_int_124"])"},
    };
    std::vector<Cell> cells;
    for (const char *mode : modes) {
        for (const auto &machine : machines) {
            const std::string args =
                std::string(machine.args) + n + " --mode " + mode;
            cells.push_back({args, ""});
            cells.push_back({args + " --json",
                             std::string("{") + machine.body +
                                 R"(,"instructions":20000,"mode":")" +
                                 mode + "\"}"});
        }
    }
    cells.push_back({"--workload secret_srv12" + n +
                         " --save-trace cli_outputs.trace",
                     ""});
    cells.push_back(
        {"--load-trace cli_outputs.trace" + n + " --mode asmdb", ""});
    cells.push_back({"--workload secret_srv12" + n +
                         " --result-out cli_outputs.profile",
                     ""});
    cells.push_back({"--workload secret_srv12" + n +
                         " --profile-in cli_outputs.profile"
                         " --distance-provider profile --mode asmdb",
                     ""});
    cells.push_back(
        {"--workload secret_srv12" + n + " --scenario-window 4096 --json",
         R"({"workload":"secret_srv12","instructions":20000})", 4096});
    cells.push_back({"--workload secret_srv12" + n +
                         " --hw-prefetcher fdip+mana --mode asmdb",
                     ""});
    cells.push_back({"--workload nope" + n, ""});
    cells.push_back({"--mix secret_srv12,nope" + n + " --mode asmdb", ""});
    return cells;
}

struct CliRun
{
    int exit_code = -1;
    std::string out;
    std::string err;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Runs the CLI inside `dir`, so the relative file names of the matrix
 * (and the paths the CLI echoes) read the same on every machine.
 */
CliRun
runCli(const std::string &dir, const std::string &args)
{
    const std::string cmd = "cd '" + dir + "' && '" SIPRE_CLI_BINARY "' " +
                            args + " >cli.stdout 2>cli.stderr";
    const int status = std::system(cmd.c_str());
    CliRun run;
    run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    run.out = slurp(dir + "/cli.stdout");
    run.err = slurp(dir + "/cli.stderr");
    return run;
}

/** A fresh scratch directory for one test's CLI runs. */
std::string
scratchDir()
{
    std::string templ = ::testing::TempDir() + "sipre_cli_outputs.XXXXXX";
    if (::mkdtemp(templ.data()) == nullptr)
        return "";
    return templ;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** `text`'s lines, each behind `prefix`. */
void
appendLines(const std::string &prefix, const std::string &text,
            std::vector<std::string> &lines)
{
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line.empty() ? prefix : prefix + " " + line);
    if (!text.empty() && text.back() != '\n')
        lines.push_back(prefix + "\\ no newline at end");
}

// Every cell's exit code, stdout and stderr, against
// tests/data/cli_outputs.txt. On a mismatch the test names the cell and
// the first differing line, and writes what this build printed to
// cli_outputs.actual.txt in the working directory.
TEST(CliOutputs, EveryCellMatchesPinnedFile)
{
    const std::string dir = scratchDir();
    ASSERT_FALSE(dir.empty());
    std::vector<std::string> actual = {
        "# sipre_cli's output per invocation, generated by",
        "# CliOutputs.EveryCellMatchesPinnedFile: each cell's arguments,",
        "# exit code, stdout (\"|\" lines; a --json cell's stdout as its",
        "# FNV-1a 64 digest and length) and stderr (\"!\" lines).",
    };
    const std::vector<Cell> cells = matrix();
    std::vector<std::size_t> cell_of_line(actual.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CliRun run = runCli(dir, cells[i].args);
        actual.push_back("cell " + cells[i].args);
        actual.push_back("  exit " + std::to_string(run.exit_code));
        if (cells[i].args.find("--json") != std::string::npos) {
            char digest[64];
            std::snprintf(digest, sizeof digest, "  json %016llx %zu",
                          static_cast<unsigned long long>(fnv1a(run.out)),
                          run.out.size());
            actual.push_back(digest);
        } else {
            appendLines("  |", run.out, actual);
        }
        appendLines("  !", run.err, actual);
        cell_of_line.resize(actual.size(), i);
    }
    std::filesystem::remove_all(dir);

    std::ifstream in(SIPRE_TEST_DATA_DIR "/cli_outputs.txt");
    std::vector<std::string> expected;
    for (std::string line; std::getline(in, line);)
        expected.push_back(line);
    if (actual == expected)
        return;
    std::size_t n = 0;
    while (n < actual.size() && n < expected.size() &&
           actual[n] == expected[n])
        ++n;
    ADD_FAILURE() << "cli_outputs.txt line " << n + 1 << " differs"
                  << (n < actual.size() && cell_of_line[n] < cells.size()
                          ? " in cell: " + cells[cell_of_line[n]].args
                          : std::string())
                  << "\n  pinned:   "
                  << (n < expected.size() ? expected[n] : "<end of file>")
                  << "\n  computed: "
                  << (n < actual.size() ? actual[n] : "<end of file>");
    std::ofstream out("cli_outputs.actual.txt");
    for (const std::string &line : actual)
        out << line << '\n';
    ADD_FAILURE() << "computed outputs written to cli_outputs.actual.txt";
}

// A --json cell prints exactly what the service's executor returns for
// the same request (README: shard results are byte-identical to
// `sipre_cli --json`).
TEST(CliOutputs, JsonCellsPrintTheExecutorsResult)
{
    const std::string dir = scratchDir();
    ASSERT_FALSE(dir.empty());
    for (const Cell &cell : matrix()) {
        if (cell.body.empty())
            continue;
        service::SimRequest request;
        std::string error;
        ASSERT_TRUE(service::parseSimRequest(cell.body, request, error))
            << cell.body << ": " << error;
        const CliRun run = runCli(dir, cell.args);
        EXPECT_EQ(run.exit_code, 0) << cell.args;
        const SimResult result =
            cell.scenario_window == 0
                ? service::runSimRequest(request)
                : service::runRecipe(request,
                                     service::synthesizeTraces(request),
                                     cell.scenario_window)
                      .result;
        EXPECT_EQ(run.out, simResultToJson(result) + "\n") << cell.args;
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace sipre
