#include "runtime/worker_context.hh"

#include <memory>

namespace capo::runtime {

namespace {

// Freed at thread exit: pool worker threads outlive most scopes and
// the context must stay valid until then.
thread_local std::unique_ptr<WorkerContext> t_context;

} // namespace

WorkerContext &
WorkerContext::instance()
{
    if (t_context == nullptr)
        t_context.reset(new WorkerContext());
    return *t_context;
}

void
WorkerContext::resetForTest()
{
    if (t_context == nullptr)
        return;
    t_context->arena_.release();
    t_context->world_ = World();
    t_context->phase_hint_ = 0;
    t_context->cycle_hint_ = 0;
}

} // namespace capo::runtime
