/**
 * @file
 * perfbench_harness — the compiled half of the repository benchmark
 * (perfbench/run.py is the other half and the entry point).
 *
 *   perfbench_harness serve-load  ...  drive amos_served over NDJSON
 *   perfbench_harness store       ...  pre-build the serve_hotset store
 *   perfbench_harness check-cold  ...  recompile + execute winning plans
 *   perfbench_harness engines     ...  execution-engine throughput
 *   perfbench_harness traced      ...  in-process replay with spans
 *
 * Each mode prints one JSON document on stdout; see the mode's source
 * file for its flags.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "harness.hh"
#include "support/logging.hh"

namespace pbench {

Args::Args(int argc, char **argv, int first)
{
    for (int i = first; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--", 2) != 0)
            amos::fatal("unexpected argument '", arg, "'");
        const bool valued =
            i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
        _kv.emplace(arg + 2, valued ? argv[++i] : "1");
    }
}

std::string
Args::str(const std::string &key, const std::string &fallback) const
{
    auto it = _kv.find(key);
    return it == _kv.end() ? fallback : it->second;
}

double
Args::num(const std::string &key, double fallback) const
{
    auto it = _kv.find(key);
    return it == _kv.end() ? fallback : std::stod(it->second);
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    amos::expect(in.good(), "cannot read ", path);
    std::vector<std::string> out;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            out.push_back(line);
    return out;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    out.flush();
    amos::expect(out.good(), "cannot write ", path);
}

int
SpanLog::open(const std::string &name, const std::string &request)
{
    Span span;
    span.name = name;
    span.parent = _stack.empty() ? -1 : _stack.back();
    span.request = request.empty() && span.parent >= 0
                       ? _spans[span.parent].request
                       : request;
    span.startUs = std::chrono::duration<double, std::micro>(
                       Clock::now() - _origin)
                       .count();
    _spans.push_back(std::move(span));
    _stack.push_back(static_cast<int>(_spans.size()) - 1);
    return _stack.back();
}

void
SpanLog::close(int span)
{
    _spans[span].endUs = std::chrono::duration<double, std::micro>(
                             Clock::now() - _origin)
                             .count();
    amos::require(!_stack.empty() && _stack.back() == span,
                  "span closed out of order");
    _stack.pop_back();
}

void
SpanLog::rename(int span, const std::string &name)
{
    _spans[span].name = name;
}

amos::Json
SpanLog::toJson() const
{
    amos::Json out = amos::Json::array();
    for (const auto &s : _spans) {
        amos::Json row = amos::Json::array();
        row.push(amos::Json(s.name));
        row.push(amos::Json(s.startUs));
        row.push(amos::Json(s.endUs));
        row.push(amos::Json(s.parent));
        row.push(amos::Json(s.request));
        out.push(std::move(row));
    }
    return out;
}

} // namespace pbench

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_harness "
                             "serve-load|store|check-cold|engines|"
                             "traced [--flag value ...]\n");
        return 2;
    }
    const std::string mode = argv[1];
    try {
        pbench::Args args(argc, argv, 2);
        if (mode == "serve-load")
            return pbench::runServeLoad(args);
        if (mode == "store")
            return pbench::runStoreBuild(args);
        if (mode == "check-cold")
            return pbench::runColdCheck(args);
        if (mode == "engines")
            return pbench::runEngines(args);
        if (mode == "traced")
            return pbench::runTraced(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness %s: %s\n", mode.c_str(),
                     e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
}
