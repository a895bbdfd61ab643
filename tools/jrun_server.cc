/**
 * @file
 * jrun_server: batch job server for workload sweeps.
 *
 * Reads a JSON-lines sweep spec (one flat object per line, `--spec
 * FILE` or stdin), groups the jobs by machine image — workload plus
 * its size parameters, ignoring host toggles — and boots each image
 * exactly once (assemble, predecode/superblock discovery, build, poke
 * inputs). Every job of a group then runs from that image: by default
 * the server fork()s a worker per job, so the booted machine is shared
 * copy-on-write and the parent's image stays pristine for the next
 * job; with `--no-fork` it instead saves a checkpoint of the booted
 * machine and restores it before each job, sequentially in-process.
 * Either way the sweep pays each boot once instead of once per row.
 *
 * Spec fields: `workload` ("radix_sort" | "nqueens" | "tsp"),
 * `nodes`, the workload's size (`keys` / `queens` / `cities`), an
 * optional `label`, an optional `warmup` cycle count, and the host
 * toggles `wake_scheduler`, `net_scheduler`, `superblock`, `idle_skip`
 * (0/1 or true/false; omitted = machine default). Toggles never change
 * simulated results — the rows of a group differ only in host cost —
 * which is what makes a toggle sweep from one image sound. A line that
 * sets `threads` is refused: the simulation kernel is serial, and host
 * parallelism comes from `--jobs`.
 *
 * `warmup` (group-level, read from the group's first job; `--warmup
 * N` sets the default) advances the freshly booted image N cycles
 * before it is shared, so the jobs of a group also split the cost of
 * their common run prefix, not just the boot. That prefix is where
 * the amortization headroom lives: with the image parked near the end
 * of the run, a 4-variant toggle group pays boot + prefix once and
 * four short tails, where a cold sweep pays four full runs.
 *
 * `--jobs N` (fork mode only, default 1) keeps up to N forked workers
 * running at once. Each worker's stdout is redirected into a pipe and
 * the parent prints completed rows strictly in spec order, so the
 * output stream is byte-identical to a sequential sweep. The summary
 * reports the summed worker run time (`work_sec`) and the resulting
 * wall-clock `speedup` over running those same workers one at a time.
 *
 * Output: one RunResult JSON line per job as it finishes (the shared
 * sim/run_result_json schema; `boot_sec` carries the group's boot
 * cost on the row that paid it and 0 on rows that reused the image),
 * then a final `{"summary": ...}` line with sweep totals and
 * jobs-per-minute. `--cold` disables all sharing — every job boots
 * and runs from cycle 0 — and exists as the honest baseline for
 * measuring what the farm saves.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define JRUN_HAVE_FORK 1
#endif

#include "ckpt/snapshot.hh"
#include "sim/run_result_json.hh"
#include "trace/counter_registry.hh"
#include "workloads/apps.hh"

using namespace jmsim;
using namespace jmsim::workloads;

namespace
{

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** One parsed spec line. */
struct Job
{
    std::string label;
    std::string workload;
    unsigned nodes = 64;
    unsigned keys = 65536;   ///< radix_sort
    unsigned queens = 10;    ///< nqueens
    unsigned cities = 10;    ///< tsp
    long warmup = -1;        ///< group warmup cycles; -1 = CLI default
    // Host toggles; -1 = leave the machine default.
    int wakeScheduler = -1;
    int netScheduler = -1;
    int superblock = -1;
    int idleSkip = -1;

    /** Jobs with the same key share one booted machine image. */
    std::string
    bootKey() const
    {
        return workload + "/" + std::to_string(nodes) + "/" +
               std::to_string(keys) + "/" + std::to_string(queens) + "/" +
               std::to_string(cities);
    }
};

// ---- flat JSON-line parsing --------------------------------------
// The spec is our own format: one object per line, string / integer /
// boolean values, no nesting. A rigid scanner beats a JSON library
// dependency here.

const char *
findKey(const std::string &line, const char *key)
{
    const std::string quoted = std::string("\"") + key + "\"";
    std::size_t at = line.find(quoted);
    if (at == std::string::npos)
        return nullptr;
    at += quoted.size();
    while (at < line.size() && (line[at] == ' ' || line[at] == ':'))
        ++at;
    return at < line.size() ? line.c_str() + at : nullptr;
}

bool
parseString(const std::string &line, const char *key, std::string *out)
{
    const char *v = findKey(line, key);
    if (!v || *v != '"')
        return false;
    const char *end = std::strchr(v + 1, '"');
    if (!end)
        return false;
    out->assign(v + 1, end);
    return true;
}

bool
parseInt(const std::string &line, const char *key, long *out)
{
    const char *v = findKey(line, key);
    if (!v)
        return false;
    if (!std::strncmp(v, "true", 4)) {
        *out = 1;
        return true;
    }
    if (!std::strncmp(v, "false", 5)) {
        *out = 0;
        return true;
    }
    char *end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (end == v)
        return false;
    *out = n;
    return true;
}

bool
parseJob(const std::string &line, Job *job, std::string *err)
{
    if (!parseString(line, "workload", &job->workload)) {
        *err = "missing \"workload\"";
        return false;
    }
    if (job->workload != "radix_sort" && job->workload != "nqueens" &&
        job->workload != "tsp") {
        *err = "unknown workload \"" + job->workload + "\"";
        return false;
    }
    parseString(line, "label", &job->label);
    if (job->label.empty())
        job->label = job->workload;
    long v = 0;
    if (parseInt(line, "nodes", &v))
        job->nodes = static_cast<unsigned>(v);
    if (parseInt(line, "keys", &v))
        job->keys = static_cast<unsigned>(v);
    if (parseInt(line, "queens", &v))
        job->queens = static_cast<unsigned>(v);
    if (parseInt(line, "cities", &v))
        job->cities = static_cast<unsigned>(v);
    if (parseInt(line, "warmup", &v))
        job->warmup = v;
    if (findKey(line, "threads")) {
        *err = "\"threads\" is not a job option (the simulation kernel is "
               "serial; use --jobs for host parallelism)";
        return false;
    }
    if (parseInt(line, "wake_scheduler", &v))
        job->wakeScheduler = v ? 1 : 0;
    if (parseInt(line, "net_scheduler", &v))
        job->netScheduler = v ? 1 : 0;
    if (parseInt(line, "superblock", &v))
        job->superblock = v ? 1 : 0;
    if (parseInt(line, "idle_skip", &v))
        job->idleSkip = v ? 1 : 0;
    return true;
}

// ---- job execution -----------------------------------------------

PreparedApp
bootJob(const Job &job)
{
    if (job.workload == "radix_sort") {
        RadixConfig c;
        c.nodes = job.nodes;
        c.keys = job.keys;
        return prepareRadixSort(c);
    }
    if (job.workload == "nqueens") {
        NQueensConfig c;
        c.nodes = job.nodes;
        c.queens = job.queens;
        return prepareNQueens(c);
    }
    TspConfig c;
    c.nodes = job.nodes;
    c.cities = job.cities;
    return prepareTsp(c);
}

void
applyToggles(JMachine &m, const Job &job)
{
    if (job.wakeScheduler >= 0)
        m.setWakeScheduler(job.wakeScheduler != 0);
    if (job.netScheduler >= 0)
        m.setNetScheduler(job.netScheduler != 0);
    if (job.superblock >= 0)
        m.setSuperblock(job.superblock != 0);
    if (job.idleSkip >= 0)
        m.setIdleSkip(job.idleSkip != 0);
}

/** Run @p app's machine to completion for @p job and print its row.
 *  @p boot_sec is the boot this row is charged for (the group's cost
 *  on the row that paid it, 0 on rows that reused the image). */
void
emitJob(PreparedApp &app, const Job &job, double boot_sec)
{
    applyToggles(*app.machine, job);
    const auto t0 = std::chrono::steady_clock::now();
    const AppResult r = finishApp(app);
    RunRow row;
    row.workload = job.label;
    row.nodes = job.nodes;
    row.threads = 1;
    row.hostSeconds = secondsSince(t0);
    row.simCycles = r.runCycles;
    row.simInstructions = r.instructions;
    row.nodeSec = r.profile.nodeSeconds;
    row.netSec = r.profile.netSeconds;
    row.commitSec = r.profile.commitSeconds;
    row.netopsSec = r.profile.netopsSeconds;
    row.poolLiveHighWater = counterValue(r.counters, "pool.live_high_water");
    row.poolAllocs = counterValue(r.counters, "pool.allocs");
    row.poolRecycled = counterValue(r.counters, "pool.recycled");
    row.footprintBytes = r.footprintBytes;
    row.bootSec = boot_sec;
    std::printf("%s\n", runRowJson(row).c_str());
}

void
emitError(const Job &job, const std::string &what)
{
    std::printf("{\"workload\": \"%s\", \"error\": \"%s\"}\n",
                job.label.c_str(), what.c_str());
}

struct SweepTotals
{
    unsigned jobs = 0;
    unsigned failed = 0;
    double bootSec = 0;
    /** Summed per-job run time (fork -> exit, or the in-process run):
     *  what a one-at-a-time sweep would have spent inside jobs. */
    double workSec = 0;
};

#if JRUN_HAVE_FORK
/** Concurrent fork workers (--jobs N). Each worker's stdout goes into
 *  a pipe; rows print in launch order once the worker is done, so N-way
 *  sweeps emit the same byte stream as sequential ones. */
class ForkFarm
{
  public:
    ForkFarm(unsigned window, SweepTotals *totals)
        : window_(window ? window : 1), totals_(totals)
    {
    }

    /** Fork a worker for @p job off the booted @p app. Blocks (reaping
     *  the oldest workers) while the window is full. */
    void
    launch(PreparedApp &app, const Job &job, double boot_owed)
    {
        while (liveCount() >= window_)
            reapOne();
        std::fflush(stdout);
        std::fflush(stderr);
        int fds[2];
        if (pipe(fds) != 0) {
            emitError(job, "pipe failed");
            totals_->jobs += 1;
            totals_->failed += 1;
            return;
        }
        const pid_t pid = fork();
        if (pid == 0) {
            // Worker: close the farm's other pipe ends so siblings see
            // EOF the moment their owner exits, then write the row to
            // our own pipe.
            close(fds[0]);
            for (const Child &c : children_)
                if (!c.done)
                    close(c.fd);
            dup2(fds[1], STDOUT_FILENO);
            close(fds[1]);
            int rc = 0;
            try {
                emitJob(app, job, boot_owed);
            } catch (const std::exception &e) {
                emitError(job, e.what());
                rc = 1;
            }
            std::fflush(stdout);
            _exit(rc);
        }
        close(fds[1]);
        if (pid < 0) {
            close(fds[0]);
            emitError(job, "fork failed");
            totals_->jobs += 1;
            totals_->failed += 1;
            return;
        }
        Child c;
        c.pid = pid;
        c.fd = fds[0];
        c.job = &job;
        c.start = std::chrono::steady_clock::now();
        children_.push_back(std::move(c));
        totals_->jobs += 1;
    }

    /** Wait for every outstanding worker and print its row. */
    void
    drain()
    {
        while (liveCount() > 0)
            reapOne();
        printReady();
    }

  private:
    struct Child
    {
        pid_t pid = -1;
        int fd = -1;
        const Job *job = nullptr;
        std::chrono::steady_clock::time_point start;
        std::string out;
        bool done = false;
        bool ok = false;
        bool printed = false;
    };

    std::size_t
    liveCount() const
    {
        std::size_t n = 0;
        for (const Child &c : children_)
            n += c.done ? 0 : 1;
        return n;
    }

    /** Block until any worker exits; record its output and duration. */
    void
    reapOne()
    {
        int status = 0;
        const pid_t pid = waitpid(-1, &status, 0);
        if (pid <= 0)
            return;
        for (Child &c : children_) {
            if (c.pid != pid || c.done)
                continue;
            char buf[4096];
            ssize_t n;
            while ((n = read(c.fd, buf, sizeof buf)) > 0)
                c.out.append(buf, static_cast<std::size_t>(n));
            close(c.fd);
            c.done = true;
            c.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
            if (WIFSIGNALED(status))
                emitError(*c.job, "worker killed by signal");
            totals_->workSec += secondsSince(c.start);
            if (!c.ok)
                totals_->failed += 1;
            break;
        }
        printReady();
    }

    /** Emit finished rows in launch order; drop fully-printed heads. */
    void
    printReady()
    {
        std::size_t head = 0;
        for (Child &c : children_) {
            if (!c.done)
                break;
            if (!c.printed) {
                std::fwrite(c.out.data(), 1, c.out.size(), stdout);
                c.printed = true;
            }
            ++head;
        }
        children_.erase(children_.begin(),
                        children_.begin() + static_cast<long>(head));
    }

    unsigned window_;
    SweepTotals *totals_;
    std::vector<Child> children_;
};
#endif

#if JRUN_HAVE_FORK
using Farm = ForkFarm;
#else
using Farm = void;
#endif

/** Run one boot group: jobs sharing a machine image, spec order. */
void
runGroup(const std::vector<const Job *> &group, Farm *farm, Cycle warmup,
         SweepTotals *totals)
{
    const bool use_fork = farm != nullptr;
    PreparedApp app;
    try {
        app = bootJob(*group.front());
        const long group_warmup = group.front()->warmup >= 0
                                      ? group.front()->warmup
                                      : static_cast<long>(warmup);
        if (group_warmup > 0)
            app.machine->run(static_cast<Cycle>(group_warmup));
    } catch (const std::exception &e) {
#if JRUN_HAVE_FORK
        // Keep the stream in spec order: outstanding rows first.
        if (farm)
            farm->drain();
#endif
        for (const Job *job : group)
            emitError(*job, e.what());
        totals->failed += static_cast<unsigned>(group.size());
        return;
    }
    totals->bootSec += app.bootSeconds;

    // In checkpoint mode the image backs every job after the first
    // (which runs straight off the booted machine); a singleton group
    // never needs it.
    ckpt::Snapshot image;
    if (!use_fork && group.size() > 1)
        app.machine->save(image);

    double boot_owed = app.bootSeconds;
    bool first = true;
    for (const Job *job : group) {
#if JRUN_HAVE_FORK
        if (use_fork) {
            // Worker: a copy-on-write image of the booted machine.
            farm->launch(app, *job, boot_owed);
            boot_owed = 0;  // the image is paid for
            continue;
        }
#endif
        bool ok = true;
        const auto t0 = std::chrono::steady_clock::now();
        try {
            // Each job starts from the boot-time checkpoint; the
            // previous job's completed run is discarded.
            std::string err;
            if (!first && !app.machine->restore(image, &err))
                throw std::runtime_error(err);
            emitJob(app, *job, boot_owed);
        } catch (const std::exception &e) {
            emitError(*job, e.what());
            ok = false;
        }
        totals->workSec += secondsSince(t0);
        totals->jobs += 1;
        if (!ok)
            totals->failed += 1;
        boot_owed = 0;  // the image is paid for
        first = false;
    }
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--spec FILE] [--no-fork] [--jobs N] [--warmup CYCLES] "
        "[--cold]\n"
        "  Reads a JSON-lines sweep spec (stdin without --spec), boots\n"
        "  each (workload, size) once, runs every job from that image\n"
        "  (fork by default, checkpoint restore with --no-fork), and\n"
        "  streams one RunResult JSON line per job plus a summary.\n"
        "  --jobs N keeps up to N forked workers running at once\n"
        "  (default 1 = sequential; rows still print in spec order).\n"
        "  --cold disables all sharing (boot + full run per job): the\n"
        "  baseline the farm modes are measured against.\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *spec_path = nullptr;
    bool use_fork = true;
    bool cold = false;
    unsigned jobs_n = 1;
    Cycle warmup = 0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--spec") && i + 1 < argc)
            spec_path = argv[++i];
        else if (!std::strcmp(argv[i], "--no-fork"))
            use_fork = false;
        else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            const long n = std::strtol(argv[++i], nullptr, 10);
            if (n < 1)
                return usage(argv[0]);
            jobs_n = static_cast<unsigned>(n);
        } else if (!std::strcmp(argv[i], "--warmup") && i + 1 < argc)
            warmup = std::strtoull(argv[++i], nullptr, 10);
        else if (!std::strcmp(argv[i], "--cold"))
            cold = true;
        else
            return usage(argv[0]);
    }
    if (cold) {
        use_fork = false;
        warmup = 0;
    }
#if !JRUN_HAVE_FORK
    use_fork = false;  // in-process sequential fallback
#endif

    std::FILE *spec = spec_path ? std::fopen(spec_path, "r") : stdin;
    if (!spec) {
        std::fprintf(stderr, "cannot read spec %s\n", spec_path);
        return 2;
    }
    std::vector<Job> jobs;
    char line[1024];
    unsigned lineno = 0;
    while (std::fgets(line, sizeof line, spec)) {
        ++lineno;
        std::string text(line);
        if (text.find_first_not_of(" \t\r\n") == std::string::npos)
            continue;
        Job job;
        std::string err;
        if (!parseJob(text, &job, &err)) {
            std::fprintf(stderr, "spec line %u: %s\n", lineno, err.c_str());
            if (spec != stdin)
                std::fclose(spec);
            return 2;
        }
        jobs.push_back(std::move(job));
    }
    if (spec != stdin)
        std::fclose(spec);
    if (jobs.empty()) {
        std::fprintf(stderr, "empty sweep spec\n");
        return 2;
    }

    // Group by machine image, preserving first-appearance order. Cold
    // mode makes every job its own boot — the per-row cost the farm
    // is there to amortize.
    std::vector<std::pair<std::string, std::vector<const Job *>>> groups;
    std::map<std::string, std::size_t> group_at;
    for (Job &job : jobs) {
        if (cold) {
            job.warmup = 0;
            groups.push_back({job.bootKey(), {&job}});
            continue;
        }
        const std::string key = job.bootKey();
        const auto it = group_at.find(key);
        if (it == group_at.end()) {
            group_at.emplace(key, groups.size());
            groups.push_back({key, {&job}});
        } else {
            groups[it->second].second.push_back(&job);
        }
    }

    const auto t0 = std::chrono::steady_clock::now();
    SweepTotals totals;
#if JRUN_HAVE_FORK
    ForkFarm farm(jobs_n, &totals);
    Farm *farm_ptr = use_fork ? &farm : nullptr;
#else
    Farm *farm_ptr = nullptr;
#endif
    for (const auto &group : groups)
        runGroup(group.second, farm_ptr, warmup, &totals);
#if JRUN_HAVE_FORK
    if (farm_ptr)
        farm.drain();
#endif
    const double wall = secondsSince(t0);

    // speedup: summed worker time over wall clock — what running the
    // same workers one at a time would have cost, relative to now.
    std::printf("{\"summary\": true, \"jobs\": %u, \"failed\": %u, "
                "\"boots\": %zu, \"boot_sec\": %.6f, \"wall_sec\": %.6f, "
                "\"jobs_per_min\": %.2f, \"jobs_n\": %u, "
                "\"work_sec\": %.6f, \"speedup\": %.2f, \"mode\": \"%s\"}\n",
                totals.jobs, totals.failed, groups.size(), totals.bootSec,
                wall, wall > 0 ? totals.jobs * 60.0 / wall : 0.0, jobs_n,
                totals.workSec, wall > 0 ? totals.workSec / wall : 0.0,
                cold ? "cold" : use_fork ? "fork" : "checkpoint");
    return totals.failed == 0 ? 0 : 1;
}
