/**
 * @file
 * Runtime control plane of the serve daemon.
 *
 * Modeled on the kernel's debugfs mitigation toggles
 * (`spec_ctrl_enable` and friends): a registry of named string-valued
 * knobs, each with a reader and a validating writer, mutated at
 * runtime through `config get/set/list` requests — no restart, no
 * connection drop. The server registers knobs like `default_defense`
 * (the DefenseConfig applied to requests that name none),
 * `max_inflight` (the admission limit `--jobs` set at start), and
 * `cache_budget` (disk-tier bytes); every successful set is logged with old and new value, the
 * way spec_ctrl prints mitigation transitions.
 */
#ifndef PIBE_SERVE_CONTROL_H_
#define PIBE_SERVE_CONTROL_H_

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "serve/json.h"

namespace pibe::serve {

/** Thread-safe named-knob registry. */
class ControlPlane
{
  public:
    /** Returns the current value. */
    using Getter = std::function<std::string()>;
    /**
     * Validates and applies a new value; returns an error message, or
     * std::nullopt on success. Must be atomic: either the knob changed
     * to exactly the requested value or nothing changed.
     */
    using Setter =
        std::function<std::optional<std::string>(const std::string&)>;

    void registerKnob(const std::string& name,
                      const std::string& description, Getter get,
                      Setter set);

    /** Current value of `name`; std::nullopt if unknown. */
    std::optional<std::string> get(const std::string& name) const;

    /**
     * Set `name` to `value`. Returns std::nullopt on success, else an
     * error message (unknown knob, or the setter's validation error).
     */
    std::optional<std::string> set(const std::string& name,
                                   const std::string& value);

    /** All knobs as {name: {value, description}}. */
    Json list() const;

  private:
    struct Knob
    {
        std::string description;
        Getter get;
        Setter set;
    };

    mutable std::mutex mu_;
    std::map<std::string, Knob> knobs_;
};

} // namespace pibe::serve

#endif // PIBE_SERVE_CONTROL_H_
