/**
 * @file
 * JSON serialization of model inputs and results — the machine-
 * readable interface the paper's interactive visualizer and Android
 * app expose; our CLI emits the same structures. The readers accept
 * the inputs in the shape the writers emit (`gables serve` takes its
 * inline "soc" and "usecase" objects through them).
 */

#ifndef GABLES_CORE_SERIALIZE_H
#define GABLES_CORE_SERIALIZE_H

#include <ostream>

#include "core/gables.h"
#include "core/soc_spec.h"
#include "core/usecase.h"

namespace gables {

class JsonValue;

/** Write a SocSpec as a JSON object to @p out. */
void writeJson(std::ostream &out, const SocSpec &soc);

/** Write a Usecase as a JSON object to @p out. */
void writeJson(std::ostream &out, const Usecase &usecase);

/**
 * Write a full evaluation (inputs echoed plus the GablesResult) as a
 * JSON object to @p out.
 */
void writeJson(std::ostream &out, const SocSpec &soc,
               const Usecase &usecase, const GablesResult &result);

/**
 * Read a SocSpec from the object writeJson(out, soc) emits; "name"
 * defaults to "request" and each IP's to "IP<i>".
 * @throws ConfigError (unlocated, not logged) when the value has the
 *         wrong shape; FatalError when SocSpec rejects the values.
 */
SocSpec socFromJson(const JsonValue &v);

/**
 * Read a Usecase from the object writeJson(out, usecase) emits. A
 * null intensity is +infinity, as the writer renders it; the derived
 * "average_intensity" is ignored.
 * @throws ConfigError / FatalError as socFromJson().
 */
Usecase usecaseFromJson(const JsonValue &v);

} // namespace gables

#endif // GABLES_CORE_SERIALIZE_H
