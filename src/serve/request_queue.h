// Bounded MPMC request queue with backpressure.
//
// The queue is the admission-control point of the serving pipeline — one
// per registered model, so backpressure and load shedding are per model:
// its capacity bounds the number of that model's requests buffered ahead of
// the scheduler, and a model flooding its own queue blocks only its own
// clients. Producers choose between Push (block until space — the
// backpressure propagates into the client thread) and TryPush (fail fast so
// the caller can shed load). Close() drains gracefully. Consumers: the pool
// workers, each draining every bucketed model's queue inside
// BatchScheduler::Next and multiplexing them through one ChannelNotifier,
// or a continuous model's StepRunner thread.
//
// All semantics live in the generic Channel (src/serve/channel.h); this is
// the Request instantiation the pipeline passes around.
#pragma once

#include "src/serve/channel.h"
#include "src/serve/request.h"

namespace nimble {
namespace serve {

class RequestQueue : public Channel<Request> {
 public:
  using Channel<Request>::Channel;
};

}  // namespace serve
}  // namespace nimble
