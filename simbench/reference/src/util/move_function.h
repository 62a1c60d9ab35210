/**
 * @file
 * Move-only type-erased `void()` callable with a large inline buffer.
 *
 * The discrete-event hot path stores one callback per scheduled event.
 * std::function's small-buffer optimization (16 bytes in libstdc++)
 * forces a heap allocation for nearly every engine callback — they
 * capture `this` plus a Request or a batch vector — and requires the
 * callable to be copyable, which blocks moving owned state (like a
 * chained completion callback) into a capture. MoveFunction fixes
 * both: captures up to kInlineBytes live inside the object, and only
 * movability is required of the wrapped callable.
 */

#ifndef COSERVE_UTIL_MOVE_FUNCTION_H
#define COSERVE_UTIL_MOVE_FUNCTION_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace coserve {

/** Move-only `void()` callable wrapper (see file comment). */
class MoveFunction
{
  public:
    /** Captures up to this size are stored inline (no allocation). */
    static constexpr std::size_t kInlineBytes = 64;

    MoveFunction() = default;
    MoveFunction(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, MoveFunction>>>
    MoveFunction(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "callback must be callable as void()");
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &kInlineOps<Fn>;
        } else {
            // Placement-new the Fn* so a pointer object formally lives
            // in the buffer (plain reinterpret_cast stores are only
            // blessed by C++20's implicit object creation).
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(f)));
            ops_ = &kHeapOps<Fn>;
        }
    }

    MoveFunction(MoveFunction &&o) noexcept { moveFrom(o); }

    MoveFunction &
    operator=(MoveFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    MoveFunction &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    MoveFunction(const MoveFunction &) = delete;
    MoveFunction &operator=(const MoveFunction &) = delete;

    ~MoveFunction() { reset(); }

    /** @return true when a callable is held. */
    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the held callable; must not be empty. */
    void
    operator()()
    {
        ops_->invoke(buf_);
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct dst's payload from src's, destroying src's. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn> static const Ops kInlineOps;
    template <typename Fn> static const Ops kHeapOps;

    void
    moveFrom(MoveFunction &o)
    {
        ops_ = o.ops_;
        if (ops_)
            ops_->relocate(buf_, o.buf_);
        o.ops_ = nullptr;
    }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    alignas(alignof(std::max_align_t)) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

template <typename Fn>
const MoveFunction::Ops MoveFunction::kInlineOps = {
    [](void *p) { (*static_cast<Fn *>(p))(); },
    [](void *dst, void *src) {
        Fn *s = static_cast<Fn *>(src);
        new (dst) Fn(std::move(*s));
        s->~Fn();
    },
    [](void *p) { static_cast<Fn *>(p)->~Fn(); },
};

template <typename Fn>
const MoveFunction::Ops MoveFunction::kHeapOps = {
    [](void *p) { (**static_cast<Fn **>(p))(); },
    [](void *dst, void *src) {
        ::new (dst) Fn *(*static_cast<Fn **>(src));
    },
    [](void *p) { delete *static_cast<Fn **>(p); },
};

} // namespace coserve

#endif // COSERVE_UTIL_MOVE_FUNCTION_H
