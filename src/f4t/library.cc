#include "library.hh"

#include "sim/causal_trace.hh"

namespace f4t::lib
{

F4tLibrary::F4tLibrary(F4tRuntime &runtime, std::size_t queue,
                       host::CpuCore &core)
    : runtime_(runtime), queue_(queue), core_(core)
{
    runtime_.setCompletionHandler(
        queue_,
        [this](const host::Command &command) { handleCompletion(command); },
        &core_);
}

bool
F4tLibrary::isOpen(SockFd fd) const
{
    return fd >= 0 && static_cast<std::size_t>(fd) < sockets_.size() &&
           sockets_[static_cast<std::size_t>(fd)].open;
}

F4tLibrary::Socket &
F4tLibrary::get(SockFd fd)
{
    f4t_assert(isOpen(fd), "unknown socket fd %d", fd);
    return sockets_[static_cast<std::size_t>(fd)];
}

const F4tLibrary::Socket &
F4tLibrary::get(SockFd fd) const
{
    f4t_assert(isOpen(fd), "unknown socket fd %d", fd);
    return sockets_[static_cast<std::size_t>(fd)];
}

F4tLibrary::Socket &
F4tLibrary::open(SockFd fd)
{
    auto index = static_cast<std::size_t>(fd);
    if (index >= sockets_.size())
        sockets_.resize(index + 1);
    Socket &sock = sockets_[index];
    sock = Socket{};
    sock.open = true;
    return sock;
}

void
F4tLibrary::bind(tcp::FlowId flow, SockFd fd)
{
    if (flow >= byFlow_.size())
        byFlow_.resize(static_cast<std::size_t>(flow) + 1, invalidFd);
    byFlow_[flow] = fd;
}

SockFd
F4tLibrary::fdFor(tcp::FlowId flow) const
{
    return flow < byFlow_.size() ? byFlow_[flow] : invalidFd;
}

host::FlowBuffers *
F4tLibrary::buffers(const Socket &sock) const
{
    if (sock.flow == tcp::invalidFlowId)
        return nullptr;
    return runtime_.memory().find(sock.flow);
}

std::uint64_t
F4tLibrary::unwrap32(std::uint64_t reference, std::uint32_t value) const
{
    std::int32_t delta = static_cast<std::int32_t>(
        value - static_cast<std::uint32_t>(reference));
    return reference + delta;
}

void
F4tLibrary::listen(std::uint16_t port)
{
    core_.charge(tcp::CostCategory::f4tLibrary,
                 host::F4tCosts::libraryCall);
    host::Command cmd;
    cmd.op = host::CmdOp::listen;
    cmd.arg0 = port;
    cmd.arg1 = static_cast<std::uint32_t>(queue_);
    runtime_.submitCommand(queue_, cmd, core_);
}

SockFd
F4tLibrary::connect(net::Ipv4Address ip, std::uint16_t port)
{
    core_.charge(tcp::CostCategory::f4tLibrary,
                 host::F4tCosts::libraryCall);
    SockFd fd = nextFd_++;
    open(fd);
    std::uint16_t cookie = static_cast<std::uint16_t>(fd);
    pendingConnects_[cookie] = fd;

    host::Command cmd;
    cmd.op = host::CmdOp::connect;
    cmd.arg0 = ip.value;
    cmd.arg1 = (static_cast<std::uint32_t>(port) << 16) | cookie;
    runtime_.submitCommand(queue_, cmd, core_);
    return fd;
}

std::size_t
F4tLibrary::send(SockFd fd, std::span<const std::uint8_t> data)
{
    core_.charge(tcp::CostCategory::f4tLibrary,
                 host::F4tCosts::libraryCall);
    Socket &sock = get(fd);
    if (!sock.established)
        return 0;
    host::FlowBuffers *fb = buffers(sock);
    f4t_assert(fb != nullptr, "established socket without buffers");

    std::size_t accepted = fb->tx.append(data);
    if (accepted < data.size())
        sock.sendBlocked = true;
    if (accepted == 0)
        return 0;
    bytesSent_ += accepted;

    host::Command cmd;
    cmd.op = host::CmdOp::send;
    cmd.flow = sock.flow;
    cmd.arg0 = static_cast<std::uint32_t>(fb->tx.end());
    // Allocate the request's trace context here: this is the moment
    // the application handed us the data. The target is the cumulative
    // stream offset of the request's last byte.
    if (auto *ct = runtime_.sim().causalTracer()) {
        cmd.trace = ct->beginRequest(&runtime_.engine(), sock.flow,
                                     fb->tx.end(), runtime_.now());
    }
    runtime_.submitCommand(queue_, cmd, core_);
    return accepted;
}

std::size_t
F4tLibrary::recv(SockFd fd, std::span<std::uint8_t> out)
{
    core_.charge(tcp::CostCategory::f4tLibrary,
                 host::F4tCosts::libraryCall);
    Socket &sock = get(fd);
    host::FlowBuffers *fb = buffers(sock);
    if (!fb)
        return 0;

    std::uint64_t avail = sock.receivedOffset - sock.consumedOffset;
    std::size_t n = out.size() < avail ? out.size()
                                       : static_cast<std::size_t>(avail);
    if (n == 0)
        return 0;

    fb->rx.copyOut(sock.consumedOffset, out.subspan(0, n));
    fb->rx.release(n);
    sock.consumedOffset += n;
    bytesReceived_ += n;

    // Tell the hardware the read pointer moved (opens the window).
    host::Command cmd;
    cmd.op = host::CmdOp::recv;
    cmd.flow = sock.flow;
    cmd.arg0 = static_cast<std::uint32_t>(sock.consumedOffset);
    runtime_.submitCommand(queue_, cmd, core_);
    return n;
}

std::size_t
F4tLibrary::readable(SockFd fd) const
{
    const Socket &sock = get(fd);
    return static_cast<std::size_t>(sock.receivedOffset -
                                    sock.consumedOffset);
}

std::size_t
F4tLibrary::writable(SockFd fd) const
{
    const Socket &sock = get(fd);
    const host::FlowBuffers *fb =
        const_cast<F4tLibrary *>(this)->buffers(sock);
    return fb ? fb->tx.freeSpace() : 0;
}

bool
F4tLibrary::established(SockFd fd) const
{
    return isOpen(fd) && get(fd).established;
}

void
F4tLibrary::close(SockFd fd)
{
    core_.charge(tcp::CostCategory::f4tLibrary,
                 host::F4tCosts::libraryCall);
    Socket &sock = get(fd);
    if (sock.flow == tcp::invalidFlowId) {
        sock = Socket{};
        return;
    }
    host::Command cmd;
    cmd.op = host::CmdOp::close;
    cmd.flow = sock.flow;
    runtime_.submitCommand(queue_, cmd, core_);
}

void
F4tLibrary::handleCompletion(const host::Command &command)
{
    switch (command.op) {
      case host::CmdOp::connected: {
        std::uint16_t cookie = static_cast<std::uint16_t>(command.arg1);
        auto it = pendingConnects_.find(cookie);
        if (it == pendingConnects_.end())
            return;
        SockFd fd = it->second;
        pendingConnects_.erase(it);
        Socket &sock = get(fd);
        sock.flow = command.flow;
        sock.established = true;
        bind(command.flow, fd);
        runtime_.memory().ensure(command.flow);
        if (callbacks_.onConnected)
            callbacks_.onConnected(fd);
        return;
      }
      case host::CmdOp::accepted: {
        SockFd fd = nextFd_++;
        Socket &sock = open(fd);
        sock.flow = command.flow;
        sock.established = true;
        bind(command.flow, fd);
        runtime_.memory().ensure(command.flow);
        if (callbacks_.onAccepted) {
            callbacks_.onAccepted(
                fd, static_cast<std::uint16_t>(command.arg1));
        }
        return;
      }
      default:
        break;
    }

    SockFd fd = fdFor(command.flow);
    if (fd == invalidFd)
        return; // late completion for a closed socket
    Socket &sock = get(fd);

    switch (command.op) {
      case host::CmdOp::acked: {
        host::FlowBuffers *fb = buffers(sock);
        if (!fb)
            return;
        std::uint64_t acked = unwrap32(sock.ackedOffset, command.arg0);
        if (acked > sock.ackedOffset) {
            std::uint64_t release = acked - sock.ackedOffset;
            std::uint64_t retained = fb->tx.size();
            if (release > retained)
                release = retained;
            fb->tx.release(static_cast<std::size_t>(release));
            sock.ackedOffset = acked;
            if (sock.sendBlocked && fb->tx.freeSpace() > 0) {
                sock.sendBlocked = false;
                if (callbacks_.onWritable)
                    callbacks_.onWritable(fd);
            }
        }
        return;
      }
      case host::CmdOp::received: {
        std::uint64_t boundary =
            unwrap32(sock.receivedOffset, command.arg0);
        if (boundary > sock.receivedOffset) {
            sock.receivedOffset = boundary;
            if (callbacks_.onReadable)
                callbacks_.onReadable(fd, readable(fd));
        }
        if (command.trace.valid()) {
            if (auto *ct = runtime_.sim().causalTracer())
                ct->delivered(command.trace, runtime_.now());
        }
        return;
      }
      case host::CmdOp::peerClosed:
        sock.peerClosed = true;
        if (callbacks_.onPeerClosed)
            callbacks_.onPeerClosed(fd);
        return;
      case host::CmdOp::closed:
      case host::CmdOp::reset: {
        bool reset = command.op == host::CmdOp::reset;
        tcp::FlowId flow = sock.flow;
        bind(flow, invalidFd);
        sock = Socket{};
        runtime_.releaseFlowMemory(flow);
        if (reset) {
            if (callbacks_.onReset)
                callbacks_.onReset(fd);
        } else if (callbacks_.onClosed) {
            callbacks_.onClosed(fd);
        }
        return;
      }
      default:
        return;
    }
}

F4tEpoll::F4tEpoll(F4tLibrary &library) : library_(library)
{
    F4tCallbacks callbacks;
    callbacks.onReadable = [this](SockFd fd, std::size_t) {
        if (interested(fd))
            push(Event{fd, true, false, false});
    };
    callbacks.onWritable = [this](SockFd fd) {
        if (interested(fd))
            push(Event{fd, false, true, false});
    };
    callbacks.onPeerClosed = [this](SockFd fd) {
        if (interested(fd))
            push(Event{fd, false, false, true});
    };
    library_.setCallbacks(callbacks);
}

void
F4tEpoll::add(SockFd fd)
{
    auto index = static_cast<std::size_t>(fd);
    if (index >= interest_.size())
        interest_.resize(index + 1, false);
    interest_[index] = true;
}

void
F4tEpoll::push(const Event &event)
{
    ready_.push_back(event);
}

std::size_t
F4tEpoll::wait(std::span<Event> out)
{
    std::size_t n = out.size() < ready_.size() ? out.size()
                                               : ready_.size();
    for (std::size_t i = 0; i < n; ++i)
        out[i] = ready_[i];
    ready_.erase(ready_.begin(), ready_.begin() +
                                     static_cast<std::ptrdiff_t>(n));
    return n;
}

} // namespace f4t::lib
