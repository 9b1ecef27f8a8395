#include "glt/glt.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <utility>

#include "arch/stack.hpp"
#include "core/channel.hpp"
#include "core/observability.hpp"
#include "obs/introspect.hpp"
#include "core/reactor.hpp"
#include "core/runtime.hpp"
#include "core/sync_ult.hpp"
#include "core/trace_export.hpp"

namespace lwt::glt {

std::optional<Backend> backend_from_name(std::string_view name) noexcept {
    // Tolerate surrounding whitespace and any letter case: names usually
    // arrive via environment variables, where " Abt" is a config typo, not
    // a different backend.
    constexpr std::string_view kSpace = " \t\n\r\f\v";
    const std::size_t first = name.find_first_not_of(kSpace);
    if (first == std::string_view::npos) {
        return std::nullopt;
    }
    name = name.substr(first, name.find_last_not_of(kSpace) - first + 1);
    if (name.size() != 3) {
        return std::nullopt;
    }
    char lower[3];
    for (std::size_t i = 0; i < 3; ++i) {
        lower[i] = static_cast<char>(
            std::tolower(static_cast<unsigned char>(name[i])));
    }
    const std::string_view n(lower, 3);
    if (n == "abt") return Backend::kAbt;
    if (n == "qth") return Backend::kQth;
    if (n == "mth") return Backend::kMth;
    if (n == "cvt") return Backend::kCvt;
    if (n == "gol") return Backend::kGol;
    return std::nullopt;
}

std::string_view backend_name(Backend backend) {
    switch (backend) {
        case Backend::kAbt: return "abt";
        case Backend::kQth: return "qth";
        case Backend::kMth: return "mth";
        case Backend::kCvt: return "cvt";
        case Backend::kGol: return "gol";
    }
    return "?";
}

void Runtime::join_all(std::span<UnitToken> tokens) {
    for (UnitToken& t : tokens) {
        join(t);
    }
}

void Runtime::join_all(std::vector<UnitToken>& tokens) {
    join_all(std::span<UnitToken>(tokens));
}

namespace {

// --- Argobots backend ---------------------------------------------------------

class AbtGlt final : public Runtime {
    struct Token final : UnitToken::State {
        abt::UnitHandle handle;
    };
    struct Bulk final : BulkHandle::State {
        std::vector<abt::UnitHandle> handles;
    };

  public:
    explicit AbtGlt(std::size_t n) : lib_(make_config(n)) {}

    Backend backend() const override { return Backend::kAbt; }
    std::size_t num_workers() const override { return lib_.num_xstreams(); }
    Capabilities capabilities() const override {
        return {.native_tasklets = true,
                .placement_hints = true,
                .native_bulk = true,
                .yieldable = true,
                .locality_domains = lib_.num_domains()};
    }

    std::vector<std::size_t> domain_workers(std::size_t d) const override {
        if (d >= lib_.num_domains()) {
            return {};
        }
        return lib_.locality().streams_in_domain(d);
    }

    UnitToken ult_create(core::UniqueFunction fn, Placement where) override {
        auto state = std::make_unique<Token>();
        state->handle =
            where.kind() == Placement::Kind::kDomain
                ? lib_.thread_create_domain(std::move(fn), where.index())
                : lib_.thread_create(std::move(fn), to_pool(where));
        return UnitToken(std::move(state));
    }

    UnitToken tasklet_create(core::UniqueFunction fn,
                             Placement where) override {
        auto state = std::make_unique<Token>();
        state->handle =
            where.kind() == Placement::Kind::kDomain
                ? lib_.task_create_domain(std::move(fn), where.index())
                : lib_.task_create(std::move(fn), to_pool(where));
        return UnitToken(std::move(state));
    }

    BulkHandle spawn_bulk(std::size_t n, BulkBody fn, UnitKind kind,
                          Placement where) override {
        if (n == 0) {
            return {};
        }
        const abt::UnitKind ak = kind == UnitKind::kTasklet
                                     ? abt::UnitKind::kTasklet
                                     : abt::UnitKind::kUlt;
        auto state = std::make_unique<Bulk>();
        state->handles =
            where.kind() == Placement::Kind::kDomain
                ? lib_.create_bulk_domain(ak, n, fn, where.index())
                : lib_.create_bulk(ak, n, fn, to_pool(where));
        return BulkHandle(std::move(state), n);
    }

    void wait(BulkHandle& handle) override {
        if (auto* b = handle.state_as<Bulk>()) {
            lib_.join_all_free(b->handles);  // one run_until over the batch
            handle.reset();
        }
    }

    void yield() override { abt::Library::yield(); }

    core::SchedStats sched_stats() const override { return lib_.sched_stats(); }

    void join(UnitToken& token) override {
        if (auto* t = token.state_as<Token>()) {
            t->handle.free();  // join-and-free, the Argobots idiom
            token.reset();
        }
    }

  private:
    static abt::Config make_config(std::size_t n) {
        abt::Config c;
        c.num_xstreams = n;
        return c;
    }

    /// any() -> -1 (library round-robin), worker(i) -> pool i.
    static int to_pool(Placement where) {
        return where.kind() == Placement::Kind::kWorker
                   ? static_cast<int>(where.index())
                   : -1;
    }

    abt::Library lib_;
};

// --- Qthreads backend ---------------------------------------------------------

class QthGlt final : public Runtime {
    struct Token final : UnitToken::State {
        std::unique_ptr<qth::aligned_t> ret = std::make_unique<qth::aligned_t>(0);
    };
    struct Bulk final : BulkHandle::State {
        qth::Sinc sinc;  // qt_sinc: the native aggregate join
    };

  public:
    explicit QthGlt(std::size_t n) : lib_(make_config(n)) {}

    Backend backend() const override { return Backend::kQth; }
    std::size_t num_workers() const override { return lib_.num_workers(); }
    Capabilities capabilities() const override {
        return {.native_tasklets = false,
                .placement_hints = true,
                .native_bulk = true,
                .yieldable = true,
                .locality_domains = lib_.num_domains()};
    }

    std::vector<std::size_t> domain_workers(std::size_t d) const override {
        // workers_per_shepherd == 1, so worker rank == shepherd index.
        if (d >= lib_.num_domains()) {
            return {};
        }
        return lib_.locality().streams_in_domain(d);
    }

    UnitToken ult_create(core::UniqueFunction fn, Placement where) override {
        auto state = std::make_unique<Token>();
        if (where.kind() == Placement::Kind::kDomain) {
            lib_.fork_to_domain(std::move(fn), state->ret.get(),
                                where.index());
        } else {
            const std::size_t shepherd =
                where.kind() == Placement::Kind::kWorker
                    ? where.index() % lib_.num_shepherds()
                    : rr_++ % lib_.num_shepherds();
            lib_.fork_to(std::move(fn), state->ret.get(), shepherd);
        }
        return UnitToken(std::move(state));
    }

    UnitToken tasklet_create(core::UniqueFunction fn,
                             Placement where) override {
        // Table I: Qthreads has no tasklet type; degrade to a ULT.
        return ult_create(std::move(fn), where);
    }

    BulkHandle spawn_bulk(std::size_t n, BulkBody fn, UnitKind /*kind*/,
                          Placement where) override {
        // Everything is a ULT; fork_bulk block-distributes over shepherds,
        // fork_bulk_domain pins the batch to one package's shared queue.
        // A worker() hint applies to the whole batch via its shepherd.
        if (n == 0) {
            return {};
        }
        auto state = std::make_unique<Bulk>();
        if (where.kind() == Placement::Kind::kDomain) {
            lib_.fork_bulk_domain(n, fn, state->sinc, where.index());
        } else if (where.kind() == Placement::Kind::kWorker) {
            const std::size_t shepherd = where.index() % lib_.num_shepherds();
            state->sinc.expect(static_cast<std::int64_t>(n));
            auto* sinc = &state->sinc;
            for (std::size_t i = 0; i < n; ++i) {
                lib_.fork_to([fn, sinc, i] { fn(i); sinc->submit(); },
                             nullptr, shepherd);
            }
        } else {
            lib_.fork_bulk(n, fn, state->sinc);
        }
        return BulkHandle(std::move(state), n);
    }

    void wait(BulkHandle& handle) override {
        if (auto* b = handle.state_as<Bulk>()) {
            b->sinc.wait();
            handle.reset();
        }
    }

    void yield() override { qth::Library::yield(); }

    core::SchedStats sched_stats() const override { return lib_.sched_stats(); }

    void join(UnitToken& token) override {
        if (auto* t = token.state_as<Token>()) {
            lib_.read_ff(t->ret.get());  // the qthreads join primitive
            token.reset();
        }
    }

  private:
    static qth::Config make_config(std::size_t n) {
        qth::Config c;
        c.num_shepherds = n;
        c.workers_per_shepherd = 1;  // the paper's preferred layout
        return c;
    }

    qth::Library lib_;
    std::atomic<std::size_t> rr_{0};
};

// --- MassiveThreads backend ----------------------------------------------------

class MthGlt final : public Runtime {
    struct Token final : UnitToken::State {
        mth::ThreadHandle handle;
    };
    struct Bulk final : BulkHandle::State {
        core::EventCounter done;
    };

  public:
    explicit MthGlt(std::size_t n) : lib_(make_config(n)) {}

    Backend backend() const override { return Backend::kMth; }
    std::size_t num_workers() const override { return lib_.num_workers(); }
    Capabilities capabilities() const override {
        return {.native_tasklets = false,
                .placement_hints = false,
                .native_bulk = true,
                .yieldable = true};
    }

    UnitToken ult_create(core::UniqueFunction fn,
                         Placement /*where*/) override {
        // MassiveThreads places work via its creation policy + stealing;
        // there is no explicit target (Table I: no cross-queue creation).
        auto state = std::make_unique<Token>();
        state->handle = lib_.create(std::move(fn));
        return UnitToken(std::move(state));
    }

    UnitToken tasklet_create(core::UniqueFunction fn,
                             Placement where) override {
        return ult_create(std::move(fn), where);
    }

    BulkHandle spawn_bulk(std::size_t n, BulkBody fn, UnitKind /*kind*/,
                          Placement /*where*/) override {
        if (n == 0) {
            return {};
        }
        auto state = std::make_unique<Bulk>();
        lib_.create_bulk_detached(n, fn, state->done);
        return BulkHandle(std::move(state), n);
    }

    void wait(BulkHandle& handle) override {
        if (auto* b = handle.state_as<Bulk>()) {
            b->done.wait();
            handle.reset();
        }
    }

    void yield() override { mth::Library::yield(); }

    core::SchedStats sched_stats() const override { return lib_.sched_stats(); }

    void join(UnitToken& token) override {
        if (auto* t = token.state_as<Token>()) {
            t->handle.join();
            token.reset();
        }
    }

  private:
    static mth::Config make_config(std::size_t n) {
        mth::Config c;
        c.num_workers = n;
        // Help-first: GLT creation happens from the main thread, outside
        // any ULT, where work-first has no continuation to displace.
        c.policy = mth::Policy::kHelpFirst;
        return c;
    }

    mth::Library lib_;
};

// --- Converse backend -------------------------------------------------------------

class CvtGlt final : public Runtime {
    struct Token final : UnitToken::State {
        std::shared_ptr<std::atomic<bool>> done =
            std::make_shared<std::atomic<bool>>(false);
    };
    struct Bulk final : BulkHandle::State {
        // Shared with the in-flight messages so an unwaited handle cannot
        // leave them signalling a dangling counter.
        std::shared_ptr<core::EventCounter> done =
            std::make_shared<core::EventCounter>();
    };

  public:
    explicit CvtGlt(std::size_t n) : lib_(make_config(n)) {}

    Backend backend() const override { return Backend::kCvt; }
    std::size_t num_workers() const override { return lib_.num_pes(); }
    Capabilities capabilities() const override {
        return {.native_tasklets = true,
                .placement_hints = true,
                .native_bulk = true,
                .yieldable = true,
                .locality_domains = lib_.num_domains()};
    }

    std::vector<std::size_t> domain_workers(std::size_t d) const override {
        if (d >= lib_.num_domains()) {
            return {};
        }
        return lib_.locality().streams_in_domain(d);
    }

    UnitToken ult_create(core::UniqueFunction fn, Placement where) override {
        // As in the paper's microbenchmarks, cross-PE work travels as
        // Messages; ULT semantics degrade to message execution for remote
        // targets (Converse restricts Cth threads to their home PE).
        return tasklet_create(std::move(fn), where);
    }

    UnitToken tasklet_create(core::UniqueFunction fn,
                             Placement where) override {
        auto state = std::make_unique<Token>();
        auto done = state->done;
        lib_.send_message(pick_pe(where),
                          [body = std::move(fn), done]() mutable {
                              body();
                              done->store(true, std::memory_order_release);
                          });
        return UnitToken(std::move(state));
    }

    BulkHandle spawn_bulk(std::size_t n, BulkBody fn, UnitKind /*kind*/,
                          Placement where) override {
        // Every unit is a Message regardless of kind; send_bulk groups
        // them round-robin and pushes one batch per PE queue
        // (send_bulk_domain restricts the recipients to one package's
        // PEs). A worker() hint sends the whole batch to that PE.
        if (n == 0) {
            return {};
        }
        auto state = std::make_unique<Bulk>();
        auto done = state->done;
        done->add(static_cast<std::int64_t>(n));
        auto body = [fn = std::move(fn), done](std::size_t i) {
            fn(i);
            done->signal();
        };
        if (where.kind() == Placement::Kind::kDomain) {
            lib_.send_bulk_domain(n, body, where.index());
        } else if (where.kind() == Placement::Kind::kWorker) {
            const std::size_t pe = where.index() % lib_.num_pes();
            for (std::size_t i = 0; i < n; ++i) {
                lib_.send_message(pe, [body, i] { body(i); });
            }
        } else {
            lib_.send_bulk(n, body);
        }
        return BulkHandle(std::move(state), n);
    }

    void wait(BulkHandle& handle) override {
        if (auto* b = handle.state_as<Bulk>()) {
            // Direct handoff: the last message's signal() wakes us; from
            // PE 0's attached thread the wait keeps draining the scheduler
            // (EventCounter::wait), preserving Converse return-mode
            // semantics without the polled predicate.
            b->done->wait();
            handle.reset();
        }
    }

    void yield() override { cvt::Library::cth_yield(); }

    core::SchedStats sched_stats() const override { return lib_.sched_stats(); }

    void join(UnitToken& token) override {
        if (auto* t = token.state_as<Token>()) {
            auto done = t->done;
            lib_.scheduler_run_until(
                [&] { return done->load(std::memory_order_acquire); });
            token.reset();
        }
    }

  private:
    static cvt::Config make_config(std::size_t n) {
        cvt::Config c;
        c.num_pes = n;
        return c;
    }

    /// Resolve a placement to one PE: worker(i) -> PE i, domain(d) ->
    /// round-robin over the domain's PEs (Converse queues are strictly
    /// per-PE, so domain targeting is recipient choice), any() ->
    /// round-robin over all PEs. Empty/out-of-range domains degrade to
    /// the all-PE rotation.
    std::size_t pick_pe(Placement where) {
        if (where.kind() == Placement::Kind::kWorker) {
            return where.index() % lib_.num_pes();
        }
        if (where.kind() == Placement::Kind::kDomain &&
            where.index() < lib_.num_domains()) {
            const auto& pes = lib_.locality().streams_in_domain(where.index());
            if (!pes.empty()) {
                return pes[rr_++ % pes.size()];
            }
        }
        return rr_++ % lib_.num_pes();
    }

    cvt::Library lib_;
    std::atomic<std::size_t> rr_{0};
};

// --- Go backend --------------------------------------------------------------------

class GolGlt final : public Runtime {
    struct Token final : UnitToken::State {
        // Go's join mechanism is a channel receive (Table II row 5).
        std::shared_ptr<core::Channel<int>> done =
            std::make_shared<core::Channel<int>>(1);
    };
    struct Bulk final : BulkHandle::State {
        // sync.WaitGroup idiom: one counter for the batch, shared with
        // the goroutines so an unwaited handle cannot dangle.
        std::shared_ptr<core::EventCounter> done =
            std::make_shared<core::EventCounter>();
    };

  public:
    explicit GolGlt(std::size_t n) : lib_(make_config(n)) {}

    Backend backend() const override { return Backend::kGol; }
    std::size_t num_workers() const override { return lib_.num_threads(); }
    Capabilities capabilities() const override {
        return {.native_tasklets = false,
                .placement_hints = false,
                .native_bulk = true,
                .yieldable = false};
    }

    UnitToken ult_create(core::UniqueFunction fn,
                         Placement /*where*/) override {
        // One global queue: placement hints are meaningless in Go.
        auto state = std::make_unique<Token>();
        auto done = state->done;
        lib_.go([body = std::move(fn), done]() mutable {
            body();
            done->send(1);
        });
        return UnitToken(std::move(state));
    }

    UnitToken tasklet_create(core::UniqueFunction fn,
                             Placement where) override {
        return ult_create(std::move(fn), where);
    }

    BulkHandle spawn_bulk(std::size_t n, BulkBody fn, UnitKind /*kind*/,
                          Placement /*where*/) override {
        if (n == 0) {
            return {};
        }
        auto state = std::make_unique<Bulk>();
        auto done = state->done;
        done->add(static_cast<std::int64_t>(n));
        lib_.go_bulk(n, [body = std::move(fn), done](std::size_t i) {
            body(i);
            done->signal();
        });
        return BulkHandle(std::move(state), n);
    }

    void wait(BulkHandle& handle) override {
        if (auto* b = handle.state_as<Bulk>()) {
            b->done->wait();  // main thread OS-yields; workers drain
            handle.reset();
        }
    }

    void yield() override {
        // Go exposes no yield (Table I); cooperate only inside a unit.
        if (core::Ult::current() != nullptr) {
            core::Ult::current()->yield();
        }
    }

    core::SchedStats sched_stats() const override { return lib_.sched_stats(); }

    void join(UnitToken& token) override {
        if (auto* t = token.state_as<Token>()) {
            t->done->recv();
            token.reset();
        }
    }

  private:
    static gol::Config make_config(std::size_t n) {
        gol::Config c;
        c.num_threads = n;
        return c;
    }

    gol::Library lib_;
};

}  // namespace

std::unique_ptr<Runtime> Runtime::create(Backend backend,
                                         std::size_t num_workers) {
    switch (backend) {
        case Backend::kAbt:
            return std::make_unique<AbtGlt>(num_workers);
        case Backend::kQth:
            return std::make_unique<QthGlt>(num_workers);
        case Backend::kMth:
            return std::make_unique<MthGlt>(num_workers);
        case Backend::kCvt:
            return std::make_unique<CvtGlt>(num_workers);
        case Backend::kGol:
            return std::make_unique<GolGlt>(num_workers);
    }
    throw std::invalid_argument("unknown GLT backend enum value");
}

std::unique_ptr<Runtime> Runtime::create_from_env() {
    return init(RuntimeOptions::from_env());
}

RuntimeOptions RuntimeOptions::from_env() {
    RuntimeOptions opts;
    if (const char* name = std::getenv("GLT_BACKEND")) {
        if (auto parsed = backend_from_name(name)) {
            opts.backend = *parsed;
        }
    }
    // Only GLT_NUM_WORKERS is honoured; the legacy GLT_WORKERS alias was
    // dropped in v2.
    if (const char* count = std::getenv("GLT_NUM_WORKERS")) {
        char* end = nullptr;
        const unsigned long parsed = std::strtoul(count, &end, 10);
        if (end != count && *end == '\0') {
            opts.workers = static_cast<std::size_t>(parsed);
        }
    }
    return opts;
}

std::unique_ptr<Runtime> init(const RuntimeOptions& opts) {
    // Install the programmatic defaults BEFORE creating the backend: the
    // personalities read them during boot (topology discovery, stack pool
    // sizing, idle-ladder selection). Each subsystem defers to its env var
    // when set; empty/nullopt fields clear a default a previous init()
    // installed, so successive boots see exactly these options.
    arch::set_default_topology_spec(opts.topology);
    arch::set_default_bind_policy(opts.bind);
    arch::set_default_stack_cache(opts.stack_cache);
    arch::set_default_stack_huge(opts.stack_huge);
    core::set_default_idle_policy(opts.idle);
    core::observability_set_defaults(opts.trace_sink, opts.metrics_sink);
    obs::set_introspect_defaults(opts.introspect_addr, opts.watchdog_ms);
    if (opts.io_poller && std::getenv("LWT_IO_POLLER") == nullptr) {
        core::Reactor::global().set_poller_enabled(*opts.io_poller);
    }
    return Runtime::create(opts.backend, opts.workers);
}

std::string introspect_addr() { return obs::introspect_bound_addr(); }

Stats stats() {
    return {core::Tracer::instance().stats(),
            core::Metrics::instance().unit_metrics()};
}

void trace_begin() {
    auto& tracer = core::Tracer::instance();
    auto& metrics = core::Metrics::instance();
    tracer.clear();
    metrics.reset();
    tracer.enable();
    metrics.enable();
}

bool trace_end(const std::string& path) {
    auto& tracer = core::Tracer::instance();
    core::Metrics::instance().disable();
    tracer.disable();
    bool ok = true;
    if (!path.empty()) {
        ok = core::write_chrome_trace_file(path, tracer.snapshot());
    }
    tracer.clear();  // free the window's events; histograms are kept
    return ok;
}

}  // namespace lwt::glt
